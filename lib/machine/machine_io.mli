(** The IO driver for the abstract machine: performs a machine value of
    type [IO t], mirroring the operational rules of Section 4.4 but on the
    real implementation.

    Where the semantic layer ({!Semantics.Iosem}) picks a member of the
    exception *set* through an oracle, the machine simply reports the
    exception its stack-trimming evaluation encounters first — "the set of
    exceptions associated with an exceptional value is represented by a
    single member, namely the exception that happens to be encountered
    first" (Section 3.5). Differential tests check that this member is in
    the semantic set.

    This driver is the one-thread case of {!Semantics.Io_runtime} over
    the machine instance {!Stg_io} — the runtime {!Machine_conc} runs
    with many threads. The machine's step budget is refuelled at every
    transition, and running out of it is [Io_diverged]. *)

type outcome =
  | Done of Semantics.Sem_value.deep
  | Uncaught of Lang.Exn.t
  | Io_diverged
  | Stuck of string

type result = {
  output : string;
  reads : int;  (** Characters consumed from the input. *)
  outcome : outcome;
  stats : Stats.t;
}

val pp_outcome : outcome Fmt.t

val run :
  ?config:Stg.config ->
  ?trace:Obs.t ->
  ?input:string ->
  ?async:(int * Lang.Exn.t) list ->
  ?max_transitions:int ->
  ?gc_every:int ->
  Lang.Syntax.expr ->
  result
(** Perform a closed expression of type [IO t] on a fresh machine.
    [async] events are injected into the machine's schedule (delivered at
    the first [getException] whose evaluation is running at or after the
    given machine step). [gc_every] runs a heap collection every that many
    IO transitions (roots: every value the runtime holds — the current
    action, pending continuations and buffered channel elements); a
    caught [HeapOverflow] runs one before the next transition. [trace]
    is shared with the underlying machine: the driver adds bracket
    acquire/release and timeout events to the machine's
    raise/poison/async stream. *)
