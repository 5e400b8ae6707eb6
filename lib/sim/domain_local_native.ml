(* Domain-local cells, the OCaml 5 side of the dune version switch
   that also selects {!Exec}'s backend (see lib/sim/dune): a
   [Domain.DLS] key, so each domain reads and writes a cell of its
   own and no lock is needed. *)

type 'a t = 'a Domain.DLS.key

let make init = Domain.DLS.new_key init
let get = Domain.DLS.get
let set = Domain.DLS.set
