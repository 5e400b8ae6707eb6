(* Four native-endian int64 words: the LCG increment [a] (odd) at byte 0,
   the LCG state [s] at 8, the xorshift pair [x0], [x1] (never 0) at 16
   and 24. Unchecked loads and an inlined step keep them unboxed. *)
type t = Bytes.t

external get : t -> int -> int64 = "%caml_bytes_get64u"
external set : t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make seed =
  let n = Array.length seed in
  let b = Bytes.create ((n * 8) + 1) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (i * 8) (Int64.of_int v)) seed;
  Bytes.set b (n * 8) '\001';
  let d1 = Digest.bytes b in
  Bytes.set b (n * 8) '\002';
  let d2 = Digest.bytes b in
  let nonzero v default = if Int64.equal v 0L then default else v in
  let t = Bytes.create 32 in
  set t 0 (Int64.logor (String.get_int64_le d1 0) 1L);
  set t 8 (String.get_int64_le d1 8);
  set t 16 (nonzero (String.get_int64_le d2 0) 1L);
  set t 24 (nonzero (String.get_int64_le d2 8) 2L);
  t

let[@inline] mix z =
  Int64.(mul (logxor z (shift_right_logical z 32)) 0xdaba0b6eb09322e3L)

let[@inline] rotl x k =
  Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let[@inline] next t =
  let s = get t 8 and x0 = get t 16 in
  let z = mix (mix (Int64.add s x0)) and q1 = Int64.logxor (get t 24) x0 in
  set t 8 Int64.(add (mul s 0xd1342543de82ef95L) (get t 0));
  set t 16 Int64.(logxor (logxor (rotl x0 24) q1) (shift_left q1 16));
  set t 24 (rotl q1 37);
  Int64.(logxor z (shift_right_logical z 32))

let rec int t bound =
  if bound > 0x3FFF_FFFF || bound <= 0 then invalid_arg "Rng.int";
  let r = Int64.to_int (next t) land 0x3FFF_FFFF in
  let v = r mod bound in
  if r - v > 0x3FFF_FFFF - bound + 1 then int t bound else v

let rec float t bound =
  let n = Int64.shift_right_logical (next t) 11 in
  if Int64.equal n 0L then float t bound
  else Int64.to_float n *. 0x1.p-53 *. bound

let bool t = Int64.compare (next t) 0L < 0

let sample t k a =
  let a = Array.copy a and n = Array.length a in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.sub a 0 k
