(* The host's speed, read apart from the program.

   The 2-vCPU VM this benchmark was tuned on changes speed by a third
   and more from one few-second stretch to the next: other tenants
   share its caches and memory. Left in, that drift is larger than the
   changes the benchmark has to show.

   So the workloads ask a helper process for one run of a fixed
   reference kernel before each timed operation (before each block of
   them, for the short ones) and note its time next to the
   operations'. run.py scales each operation's wall time by the kernel
   time around it. The kernel builds a persistent map: it allocates
   and walks memory the way the program does. Of the kernels tried it
   followed the program's slowdowns best; loops over small arrays that
   do not allocate followed them poorly. The helper is a second copy
   of main.exe with a small heap of its own, so nothing the program
   does, its heap size or its collector included, moves the kernel's
   time, and the program is idle while the kernel runs. *)

module Int_map = Map.Make (Int)

let kernel () =
  let m = ref Int_map.empty in
  for i = 0 to 20_000 do
    m := Int_map.add ((i * 7_919) land 4_095) i !m
  done;
  Int_map.fold (fun k v acc -> acc + (k lxor v)) !m 0

let helper_flag = "--host-helper"

(* The helper's loop: one kernel run per byte read from standard
   input, its time in ms as one line; it ends at end of file. Its
   first runs, which also fault in its heap, are not read. *)
let helper () =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (kernel ()))
  done;
  let rec loop () =
    match input_char stdin with
    | exception End_of_file -> ()
    | _ ->
        let t0 = Span.now () in
        ignore (Sys.opaque_identity (kernel ()));
        Printf.printf "%.17g\n%!" ((Span.now () -. t0) *. 1000.);
        loop ()
  in
  loop ()

type t = {
  pid : int;
  ask : out_channel;
  answer : in_channel;
  mutable readings : float list;  (** kernel times in ms, newest first *)
  mutable count : int;
  mutable spent_s : float;  (** wall time spent waiting for readings *)
}

let spawn () =
  let from_parent, ask = Unix.pipe ~cloexec:true () in
  let answer, to_parent = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; helper_flag |] from_parent to_parent
      Unix.stderr
  in
  Unix.close from_parent;
  Unix.close to_parent;
  {
    pid;
    ask = Unix.out_channel_of_descr ask;
    answer = Unix.in_channel_of_descr answer;
    readings = [];
    count = 0;
    spent_s = 0.;
  }

(* Closing the helper's input ends it; waits until it has. *)
let stop h =
  close_out_noerr h.ask;
  close_in_noerr h.answer;
  ignore (Unix.waitpid [] h.pid)

let with_helper f =
  let h = spawn () in
  Fun.protect ~finally:(fun () -> stop h) (fun () -> f h)

(* Takes one reading; returns its index. *)
let read h =
  let t0 = Span.now () in
  output_char h.ask 'k';
  flush h.ask;
  let ms = float_of_string (input_line h.answer) in
  h.spent_s <- h.spent_s +. (Span.now () -. t0);
  h.readings <- ms :: h.readings;
  h.count <- h.count + 1;
  h.count - 1

(* Reading [k], in ms. *)
let ms h k = List.nth h.readings (h.count - 1 - k)

(* The kernel time around the operations that started after reading
   [k]: the mean of readings [k] and [k + 1] (the last reading alone
   when there is no later one). *)
let around h marks =
  let a = Array.of_list (List.rev h.readings) in
  let last = Array.length a - 1 in
  List.map (fun k -> (a.(k) +. a.(min (k + 1) last)) /. 2.) marks

(* A timed window's wall time, less what its readings took. *)
type window = { t0 : float; spent0 : float }

let window h = { t0 = Span.now (); spent0 = h.spent_s }
let elapsed h w = Span.now () -. w.t0 -. (h.spent_s -. w.spent0)
