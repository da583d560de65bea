(** The denotational instance of {!Io_runtime}: IO values are thunks of
    the Section 4.1 domain, a failure is an exception set, and resolving
    one asks the {!Oracle} — for the Section 4.4 self-transition when the
    set contains [NonTermination], otherwise for a member (recorded with
    the un-chosen rest as [Ev_oracle_pick]). Every transition gets a
    fresh approximation budget. {!Iosem} and {!Conc} are thin adapters
    over {!run}. *)

val run :
  config:Denot.config ->
  oracle:Oracle.t ->
  trace:Obs.t ->
  concurrent:bool ->
  input:string ->
  async:Io_runtime.schedule ->
  kills:Io_runtime.kills ->
  check_invariants:bool ->
  max_steps:int ->
  Lang.Syntax.expr ->
  Io_runtime.result
(** Perform a closed [IO] expression; see {!Io_runtime.Make}. *)
