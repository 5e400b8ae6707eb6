(** A cell holding one value per domain (OCaml 5: [Domain.DLS]).
    Systhreads of one domain would share its value; the library starts
    none.

    Copied to [domain_local.mli] by a dune rule when the compiler has
    domains; [domain_local_stub.mli] is the 4.14 side, with the same
    signature. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make init] is a fresh cell; a domain's first {!get} sees
    [init ()]. *)

val get : 'a t -> 'a
(** The calling domain's value. *)

val set : 'a t -> 'a -> unit
(** Sets the calling domain's value; other domains keep theirs. *)
