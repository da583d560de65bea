(** The abstract-machine instance of {!Semantics.Io_runtime}: IO values
    are machine addresses on one shared heap, a failure is the single
    exception the machine's stack-trimming evaluation met first (fuel
    exhaustion is divergence), the step budget is refuelled at every
    transition, and garbage collection runs from the roots the runtime
    lists. {!Machine_io} and {!Machine_conc} are thin adapters over
    {!run}. *)

val run :
  ?config:Stg.config ->
  ?trace:Obs.t ->
  concurrent:bool ->
  input:string ->
  async:Semantics.Io_runtime.schedule ->
  kills:Semantics.Io_runtime.kills ->
  check_invariants:bool ->
  max_steps:int ->
  gc_every:int option ->
  Lang.Syntax.expr ->
  Semantics.Io_runtime.result * Stats.t
(** Perform a closed [IO] expression on a fresh machine. [async] events
    go into the machine's own schedule (delivered, by machine step, at
    the first [getException] of an unmasked thread). The runtime's
    exception-safety counters are added to the returned machine stats. *)
