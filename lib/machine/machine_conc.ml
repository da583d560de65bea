module R = Semantics.Io_runtime

type outcome = R.outcome =
  | Done of Semantics.Sem_value.deep
  | Uncaught of Lang.Exn.t
  | Deadlock
  | Diverged
  | Stuck of string

type result = {
  output : string;
  outcome : outcome;
  threads_spawned : int;
  transitions : int;
  stats : Stats.t;
}

let pp_outcome = R.pp_outcome

let run ?config ?trace ?(input = "") ?(async = []) ?(kills = [])
    ?(check_invariants = R.debug_default ()) ?(max_transitions = 100_000) e =
  let r, stats =
    Stg_io.run ?config ?trace ~concurrent:true ~input ~async ~kills
      ~check_invariants ~max_steps:max_transitions ~gc_every:None e
  in
  {
    output = R.output_of r.R.events;
    outcome = r.R.outcome;
    threads_spawned = r.R.threads_spawned;
    transitions = r.R.clock;
    stats;
  }
