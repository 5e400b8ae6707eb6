type t =
  | Nominate of Value.t
  | Prepare of Ballot.t
  | Commit of Ballot.t

let tag = function Nominate _ -> 0 | Prepare _ -> 1 | Commit _ -> 2

let compare a b =
  match (a, b) with
  | Nominate v, Nominate w -> Value.compare v w
  | Prepare x, Prepare y | Commit x, Commit y -> Ballot.compare x y
  | _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let hash = function
  | Nominate v -> Value.hash v * 3
  | Prepare b -> (Ballot.hash b * 3) + 1
  | Commit b -> (Ballot.hash b * 3) + 2

let pp ppf = function
  | Nominate v -> Format.fprintf ppf "nominate %a" Value.pp v
  | Prepare b -> Format.fprintf ppf "prepare %a" Ballot.pp b
  | Commit b -> Format.fprintf ppf "commit %a" Ballot.pp b

let implied = function
  | Commit b -> [ Prepare b ]
  | Nominate _ | Prepare _ -> []

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
