(* Fixture: seeded determinism is fine outside lib/. *)
let rng seed = Random.State.make [| seed |]
let pick st = Random.State.int st 100
