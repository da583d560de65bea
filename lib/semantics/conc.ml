module R = Io_runtime

type event = R.event =
  | E_write of int * char
  | E_read of int * char
  | E_fork of int * int
  | E_block of int
  | E_wake of int
  | E_thread_done of int
  | E_thread_died of int * Lang.Exn.t
  | E_async of int * Lang.Exn.t
  | E_sleep of int * int
  | E_throwto of int * int * Lang.Exn.t

type outcome = R.outcome =
  | Done of Sem_value.deep
  | Uncaught of Lang.Exn.t
  | Deadlock
  | Diverged
  | Stuck of string

type result = {
  trace : event list;
  outcome : outcome;
  threads_spawned : int;
  context_switches : int;
  counters : Iosem.counters;
}

let pp_event = R.pp_event
let pp_outcome = R.pp_outcome

let run ?(config = Denot.default_config) ?(oracle = Oracle.first ())
    ?(trace = Obs.create ()) ?(input = "") ?(async = []) ?(kills = [])
    ?(check_invariants = R.debug_default ()) ?(max_steps = 200_000) e =
  let r =
    Denot_io.run ~config ~oracle ~trace ~concurrent:true ~input ~async ~kills
      ~check_invariants ~max_steps e
  in
  {
    trace = r.R.events;
    outcome = r.R.outcome;
    threads_spawned = r.R.threads_spawned;
    context_switches = r.R.switches;
    counters = r.R.counters;
  }

let output_string_of r = R.output_of r.trace
