(* Fixture: lib/ draws from Graphkit.Rng; Random.State in a comment is fine. *)
let rng seed = Graphkit.Rng.make [| seed |]
let pick st = Graphkit.Rng.int st 100
type t = { st : Graphkit.Rng.t }
