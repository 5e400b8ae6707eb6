(* Domain-local cells on OCaml 4.14, which has one domain: a plain
   reference (see domain_local_native.ml for OCaml 5). *)

type 'a t = 'a ref

let make init = ref (init ())
let get = ( ! )
let set = ( := )
