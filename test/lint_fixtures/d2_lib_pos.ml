(* Fixture: the stdlib's Random under lib/, a value, a type and a module. *)
let rng seed = Random.State.make [| seed |]
let pick st = Stdlib.Random.State.int st 100
type t = { st : Random.State.t }
module R = Random
