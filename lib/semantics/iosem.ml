module Exn = Lang.Exn
module R = Io_runtime

type event = E_read of char | E_write of char | E_async of Exn.t

type outcome =
  | Done of Sem_value.deep
  | Uncaught of Exn.t
  | Io_diverged
  | Stuck of string

type counters = R.counters = {
  mutable async_delivered : int;
  mutable brackets_entered : int;
  mutable brackets_released : int;
  mutable timeouts_fired : int;
  mutable masked_sections : int;
  mutable retries : int;
  mutable throwtos_delivered : int;
  mutable blocked_recoveries : int;
}

let fresh_counters = R.fresh_counters

type result = { trace : event list; outcome : outcome; counters : counters }
type schedule = R.schedule

let pp_event ppf = function
  | E_read c -> Fmt.pf ppf "?%C" c
  | E_write c -> Fmt.pf ppf "!%C" c
  | E_async e -> Fmt.pf ppf "async(%a)" Exn.pp e

let pp_outcome ppf = function
  | Done d -> Fmt.pf ppf "Done %a" Sem_value.pp_deep d
  | Uncaught e -> Fmt.pf ppf "Uncaught %a" Exn.pp e
  | Io_diverged -> Fmt.string ppf "Io_diverged"
  | Stuck msg -> Fmt.pf ppf "Stuck %S" msg

let run ?(config = Denot.default_config) ?(oracle = Oracle.first ())
    ?(trace = Obs.create ()) ?(input = "") ?(async = [])
    ?(max_steps = 100_000) e =
  let r =
    Denot_io.run ~config ~oracle ~trace ~concurrent:false ~input ~async
      ~kills:[] ~check_invariants:(R.debug_default ()) ~max_steps e
  in
  let trace =
    List.filter_map
      (function
        | R.E_read (_, c) -> Some (E_read c)
        | R.E_write (_, c) -> Some (E_write c)
        | R.E_async (_, x) -> Some (E_async x)
        | _ -> None)
      r.R.events
  in
  let outcome =
    match r.R.outcome with
    | R.Done d -> Done d
    | R.Uncaught x -> Uncaught x
    | R.Diverged -> Io_diverged
    | R.Stuck msg -> Stuck msg
    | R.Deadlock -> Stuck "deadlock"
  in
  { trace; outcome; counters = r.R.counters }

let output_string_of r =
  let buf = Buffer.create 16 in
  List.iter (function E_write c -> Buffer.add_char buf c | _ -> ()) r.trace;
  Buffer.contents buf
