(** A cell holding one value per domain (OCaml 4.14: one domain, so
    one value).

    Copied to [domain_local.mli] by a dune rule when the compiler lacks
    domains; see [domain_local_native.mli] for the OCaml 5 side. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make init] is a cell holding [init ()]. *)

val get : 'a t -> 'a
val set : 'a t -> 'a -> unit
