type t = { succ : Pid.Set.t Pid.Map.t; pred : Pid.Set.t Pid.Map.t }

let empty = { succ = Pid.Map.empty; pred = Pid.Map.empty }

let touch i m =
  if Pid.Map.mem i m then m else Pid.Map.add i Pid.Set.empty m

let add_vertex i g = { succ = touch i g.succ; pred = touch i g.pred }

let add_to i j m =
  let s = Option.value ~default:Pid.Set.empty (Pid.Map.find_opt i m) in
  Pid.Map.add i (Pid.Set.add j s) m

let add_edge i j g =
  let g = add_vertex i (add_vertex j g) in
  { succ = add_to i j g.succ; pred = add_to j i g.pred }

let vertices g = Pid.Map.keys g.succ
let n_vertices g = Pid.Map.cardinal g.succ
let mem_vertex i g = Pid.Map.mem i g.succ

let succs g i =
  Option.value ~default:Pid.Set.empty (Pid.Map.find_opt i g.succ)

let preds g i =
  Option.value ~default:Pid.Set.empty (Pid.Map.find_opt i g.pred)

let mem_edge i j g = Pid.Set.mem j (succs g i)

let n_edges g = Pid.Map.fold (fun _ s n -> n + Pid.Set.cardinal s) g.succ 0

let remove_vertex i g =
  let drop m = Pid.Map.map (Pid.Set.remove i) (Pid.Map.remove i m) in
  { succ = drop g.succ; pred = drop g.pred }

let remove_vertices vs g =
  (* One pass per map instead of folding [remove_vertex] (which rebuilds
     both maps once per removed vertex): drop the removed keys and
     subtract [vs] from every surviving adjacency row. *)
  if Pid.Set.is_empty vs then g
  else
    let drop m =
      Pid.Map.filter_map
        (fun i s -> if Pid.Set.mem i vs then None else Some (Pid.Set.diff s vs))
        m
    in
    { succ = drop g.succ; pred = drop g.pred }

let of_edges es = List.fold_left (fun g (i, j) -> add_edge i j g) empty es

(* One set per row (a repeated source merges its rows), then one pass
   over the edges buckets the reverse rows and adds the targets that
   are never a source. *)
let of_adjacency adj =
  let add_row m (i, js) =
    let row = Pid.Set.of_list js in
    Pid.Map.update i
      (function None -> Some row | Some s -> Some (Pid.Set.union s row))
      m
  in
  let rows = List.fold_left add_row Pid.Map.empty adj in
  let sources = Hashtbl.create 64 in
  let succ =
    Pid.Map.fold
      (fun i row succ ->
        Pid.Set.fold
          (fun j succ ->
            Hashtbl.add sources j i;
            touch j succ)
          row succ)
      rows rows
  in
  let pred_row j _ = Pid.Set.of_list (Hashtbl.find_all sources j) in
  { succ; pred = Pid.Map.mapi pred_row succ }

let edges g =
  Pid.Map.fold
    (fun i s acc -> Pid.Set.fold (fun j acc -> (i, j) :: acc) s acc)
    g.succ []
  |> List.rev

let iter_succs f g = Pid.Map.iter f g.succ
let fold_edges f g acc = List.fold_left (fun acc (i, j) -> f i j acc) acc (edges g)

let subgraph vs g =
  let keep m =
    Pid.Map.filter_map
      (fun i s -> if Pid.Set.mem i vs then Some (Pid.Set.inter s vs) else None)
      m
  in
  { succ = keep g.succ; pred = keep g.pred }

let transpose g = { succ = g.pred; pred = g.succ }

let union a b =
  let merged base extra =
    Pid.Map.union (fun _ s1 s2 -> Some (Pid.Set.union s1 s2)) base extra
  in
  { succ = merged a.succ b.succ; pred = merged a.pred b.pred }

let undirected g = union g (transpose g)

let equal a b = Pid.Map.equal Pid.Set.equal a.succ b.succ

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  Pid.Map.iter
    (fun i s -> Format.fprintf ppf "%d -> %a@," i Pid.Set.pp s)
    g.succ;
  Format.fprintf ppf "@]"
