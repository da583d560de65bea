(** Concurrency on the abstract machine: the implementation counterpart of
    {!Semantics.Conc} — the same scheduler over the machine instead of
    the denotation, so the two evaluators can be tested against each
    other.

    A round-robin scheduler over machine threads sharing one heap — so
    thunks forced by one thread are updated for all (call-by-need sharing
    across threads), and a thread abandoned mid-evaluation by an uncaught
    exception leaves poisoned thunks that other threads observe
    consistently. [forkIO], [MVar]s, per-thread [getException].

    Thread-to-thread asynchronous exceptions ([myThreadId], [throwTo],
    [killThread]) follow {!Semantics.Conc} exactly: non-blocking send,
    queued on the target, delivered at the target's next scheduling point
    while its mask depth is zero (a self-[throwTo] is synchronous and
    ignores masking). Delivery at a [getException] is caught there as
    [Bad e]; anywhere else it unwinds the target's frames, running
    releases and handlers. Irrecoverably blocked unmasked threads receive
    the catchable [BlockedIndefinitely] exception instead of a global
    [Deadlock].

    Bounded channels ([newChan n], [readChan], [writeChan]) follow
    {!Semantics.Conc}: channel blocking is an interruptible point that
    receives asynchronous exceptions and [BlockedIndefinitely] even
    under a positive mask depth, and a blocked writer's element enters
    the buffer only when the deposit succeeds.

    It is not a second scheduler: {!Semantics.Conc} and this module are
    the two instances of {!Semantics.Io_runtime} — one frame type, one
    [pop]/[unwind], one round-robin loop over the indexed runtime (bitmap
    run queue, tid hash table, intrusive waiter FIFOs, incremental
    blocked-on edges) — here over the machine instance {!Stg_io}.
    Running out of machine fuel inside a transition is divergence of the
    program, and a caught [HeapOverflow] collects garbage from every
    thread's roots before the next transition. [check_invariants]
    (default: set when [IMPEXN_SCHED_DEBUG] is present) validates the
    indices every round and raises {!Obs.Machine_invariant} with a
    flight-recorder dump on violation. *)

type outcome = Semantics.Io_runtime.outcome =
  | Done of Semantics.Sem_value.deep  (** Main thread's result. *)
  | Uncaught of Lang.Exn.t
  | Deadlock
      (** No thread can ever run again and every blocked thread is
          masked, so not even [BlockedIndefinitely] can be delivered. *)
  | Diverged
  | Stuck of string

type result = {
  output : string;  (** All threads' writes, in global order. *)
  outcome : outcome;
  threads_spawned : int;
  transitions : int;
  stats : Stats.t;
}

val pp_outcome : outcome Fmt.t

val run :
  ?config:Stg.config ->
  ?trace:Obs.t ->
  ?input:string ->
  ?async:(int * Lang.Exn.t) list ->
  ?kills:(int * int * Lang.Exn.t) list ->
  ?check_invariants:bool ->
  ?max_transitions:int ->
  Lang.Syntax.expr ->
  result
(** Perform a closed [IO] expression with the concurrent machine
    scheduler. The machine's step budget is refuelled at every
    transition. [async] events go into the machine's schedule and are
    delivered at the first [getException] of an unmasked thread; each
    thread carries its own mask depth (brackets, [Mask] sections).
    [trace] is shared with the underlying machine: the scheduler adds
    fork, bracket and timeout events to the machine's stream.

    [kills] is a fault-injection schedule of [(transition, tid, exn)]
    triples: once the transition counter reaches [transition], [exn] is
    queued on thread [tid] exactly as if a live thread had performed
    [ThrowTo (ThreadId tid) exn]. Entries naming finished or unknown
    threads are dropped silently. *)
