type t = { counter : int; value : Value.t }

let make counter value = { counter; value }

let compare a b =
  match Int.compare a.counter b.counter with
  | 0 -> Value.compare a.value b.value
  | c -> c

let equal a b = compare a b = 0
let hash b = ((b.counter * 65599) + Value.hash b.value) land max_int
let compatible a b = Value.equal a.value b.value
let less_and_incompatible b b' = compare b b' < 0 && not (compatible b b')

let pp ppf b = Format.fprintf ppf "<%d, %a>" b.counter Value.pp b.value
