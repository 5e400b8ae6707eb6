type event = {
  time : int;
  seq : int;
  scope : string;
  name : string;
  fields : (string * Json.t) list;
}

type sink = { mutable next_seq : int; write : event -> unit }

let emit sink ~time ~scope ~name fields =
  let e = { time; seq = sink.next_seq; scope; name; fields } in
  sink.next_seq <- sink.next_seq + 1;
  sink.write e

let event_count sink = sink.next_seq

let event_to_json e =
  Json.Obj
    ([
       ("t", Json.Int e.time);
       ("seq", Json.Int e.seq);
       ("scope", Json.String e.scope);
       ("ev", Json.String e.name);
     ]
    @ e.fields)

let to_buffer buf =
  {
    next_seq = 0;
    write =
      (fun e ->
        Buffer.add_string buf (Json.to_string (event_to_json e));
        Buffer.add_char buf '\n');
  }

let recording () =
  let events = ref [] in
  ( { next_seq = 0; write = (fun e -> events := e :: !events) },
    fun () -> List.rev !events )
