(* Spans recorded by the benchmark around its calls into each layer.
   They are held in memory and summarised when the run ends; nothing is
   recorded inside the program itself. Spans of one request share [rid];
   [parent] names the span that caused this one. *)

type span = { rid : int; parent : string; name : string; t0 : int64; t1 : int64 }

type t = { on : bool; mutable spans : span list }

let create ~on = { on; spans = [] }

let record t ~rid ~parent name t0 t1 =
  if t.on then t.spans <- { rid; parent; name; t0; t1 } :: t.spans

let dur_us s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3

(* Durations (µs) of every span with this name, in recording order. *)
let durations t name =
  List.rev
    (List.filter_map
       (fun s -> if String.equal s.name name then Some (dur_us s) else None)
       t.spans)
