module R = Semantics.Io_runtime

type outcome =
  | Done of Semantics.Sem_value.deep
  | Uncaught of Lang.Exn.t
  | Io_diverged
  | Stuck of string

type result = {
  output : string;
  reads : int;
  outcome : outcome;
  stats : Stats.t;
}

let pp_outcome ppf = function
  | Done d -> Fmt.pf ppf "Done %a" Semantics.Sem_value.pp_deep d
  | Uncaught e -> Fmt.pf ppf "Uncaught %a" Lang.Exn.pp e
  | Io_diverged -> Fmt.string ppf "Io_diverged"
  | Stuck msg -> Fmt.pf ppf "Stuck %S" msg

let run ?config ?trace ?(input = "") ?(async = [])
    ?(max_transitions = 100_000) ?gc_every e =
  let r, stats =
    Stg_io.run ?config ?trace ~concurrent:false ~input ~async ~kills:[]
      ~check_invariants:(R.debug_default ()) ~max_steps:max_transitions
      ~gc_every e
  in
  let outcome =
    match r.R.outcome with
    | R.Done d -> Done d
    | R.Uncaught x -> Uncaught x
    | R.Diverged -> Io_diverged
    | R.Stuck msg -> Stuck msg
    | R.Deadlock -> Stuck "deadlock"
  in
  {
    output = R.output_of r.R.events;
    reads =
      List.length
        (List.filter (function R.E_read _ -> true | _ -> false) r.R.events);
    outcome;
    stats;
  }
