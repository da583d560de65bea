(** Concurrency on top of the IO transition system.

    Section 4.4 notes that presenting the IO layer as a labelled transition
    system over the denotation "scales to other extensions, such as adding
    concurrency to the language [16]" (Peyton Jones–Gordon–Finne,
    Concurrent Haskell). This module substantiates the remark: a
    round-robin scheduler over multiple IO threads with [forkIO] and
    [MVar]s, running on exactly the same denotational values as
    {!Iosem}.

    New IO constructors (registered in the parser's constructor table,
    with Prelude aliases [forkIO], [newEmptyMVar], [takeMVar], [putMVar]):

    {v
    Fork (IO a)            : IO Unit     -- spawn, return to parent
    NewMVar                : IO (MVar a) -- fresh empty MVar
    TakeMVar (MVar a)      : IO a        -- blocks while empty
    PutMVar (MVar a) a     : IO Unit     -- blocks while full
    v}

    Bounded channels (Prelude aliases [newChan n], [readChan],
    [writeChan]):

    {v
    NewChan Int            : IO (Chan a) -- buffer capacity (min 1)
    ReadChan (Chan a)      : IO a        -- blocks while empty
    WriteChan (Chan a) a   : IO Unit     -- blocks while full
    v}

    Channel blocking is an {e interruptible point} in the sense of
    Marlow et al. (PLDI'01): a thread blocked on a channel receives
    pending asynchronous exceptions and [BlockedIndefinitely] even while
    its mask depth is positive, unlike MVar blocking, which keeps this
    runtime's stricter masked-block discipline (a masked blocked MVar
    thread is deaf until woken). A blocked writer's element enters the
    buffer only when the deposit succeeds, so killing a blocked writer
    never loses a buffered element.

    The scheduler is {!Io_runtime}, over the denotational instance
    {!Denot_io}: the same runtime, frames and index checker that
    [Machine.Machine_conc] runs over the abstract machine, and that
    {!Iosem} runs with one thread. It is an indexed runtime — a bitmap
    run queue iterated in tid order, a tid-to-thread hash table,
    intrusive per-cell FIFO waiter queues and an incrementally maintained
    blocked-on edge per thread — with the exact same round-based schedule
    as the original list-scanning implementation (see DESIGN §4i).

    Exceptions interact with concurrency exactly as in the paper: an
    uncaught exceptional value kills only the thread that performed it
    (the main thread's death ends the program), and [getException] behaves
    as in Section 4.4 within each thread — including the self-transition:
    when the exception set contains [NonTermination] a seeded oracle may
    choose divergence, which ends the whole program as [Diverged].

    Thread-to-thread asynchronous exceptions (Prelude aliases
    [myThreadId], [throwTo t e], [killThread t]):

    {v
    MyThreadId             : IO ThreadId -- this thread's identity
    ThrowTo ThreadId Exn   : IO Unit     -- async send; no-op if dead
    v}

    [throwTo] is a non-blocking send: the exception is queued on the
    target and delivered at the target's next scheduling point while its
    mask depth is zero ([mask]/[bracket] acquire-and-release sections
    defer delivery — Section 5.1's interruptible-operation discipline,
    made strict). A [throwTo] to oneself is synchronous, delivered
    regardless of masking, as in GHC. Delivery at a [getException] is
    caught right there as [Bad e]; anywhere else it unwinds the thread's
    frames, running releases and handlers.

    When no thread can ever run again, blocked threads with mask depth
    zero receive the catchable [BlockedIndefinitely] exception instead of
    the program reporting a global [Deadlock] (GHC's
    [BlockedIndefinitelyOnMVar]); [Deadlock] remains only for the case
    where every blocked thread is masked. *)

type event = Io_runtime.event =
  | E_write of int * char  (** thread, character written *)
  | E_read of int * char
  | E_fork of int * int  (** parent, child *)
  | E_block of int  (** thread blocked on an MVar *)
  | E_wake of int
  | E_thread_done of int
  | E_thread_died of int * Lang.Exn.t
      (** A non-main thread performed an exceptional IO value. *)
  | E_async of int * Lang.Exn.t
      (** An asynchronous event was delivered to this thread. *)
  | E_sleep of int * int
      (** Thread sleeping until the given clock tick ([Retry] backoff). *)
  | E_throwto of int * int * Lang.Exn.t
      (** [throwTo]: sender, target, exception (send, not delivery). *)

type outcome = Io_runtime.outcome =
  | Done of Sem_value.deep  (** The main thread's result. *)
  | Uncaught of Lang.Exn.t  (** The main thread died. *)
  | Deadlock
      (** No thread can ever run again and every blocked thread is
          masked, so not even [BlockedIndefinitely] can be delivered. *)
  | Diverged
      (** The clock reached [max_steps], or the oracle chose divergence. *)
  | Stuck of string

type result = {
  trace : event list;
  outcome : outcome;
  threads_spawned : int;
  context_switches : int;
  counters : Iosem.counters;
      (** Fault/exception-safety counters, shared across all threads. *)
}

val pp_event : event Fmt.t
val pp_outcome : outcome Fmt.t

val run :
  ?config:Denot.config ->
  ?oracle:Oracle.t ->
  ?trace:Obs.t ->
  ?input:string ->
  ?async:Iosem.schedule ->
  ?kills:(int * int * Lang.Exn.t) list ->
  ?check_invariants:bool ->
  ?max_steps:int ->
  Lang.Syntax.expr ->
  result
(** Perform a closed [IO] expression with the concurrent scheduler
    (round-robin, one transition per thread per turn). [max_steps]
    bounds the scheduler clock: one tick per transition, plus the ticks
    a sleeping thread's backoff fast-forwards over. [trace] receives
    structured oracle-pick, catch, async, mask, bracket, fork and
    timeout events.

    [kills] is a fault-injection schedule of [(clock, tid, exn)]
    triples: once the global clock reaches [clock], [exn] is queued on
    thread [tid] exactly as if a live thread had performed
    [ThrowTo (ThreadId tid) exn]. Entries naming finished or unknown
    threads are dropped silently.

    [check_invariants] (default: set when the [IMPEXN_SCHED_DEBUG]
    environment variable is present) validates the scheduler indices
    every round — every runnable thread in the run queue exactly once,
    every blocked thread with exactly one attached blocked-on edge,
    channel buffers within bounds — and raises
    {!Obs.Machine_invariant} carrying a flight-recorder dump on
    violation. *)

val output_string_of : result -> string
(** Characters written by all threads, in global order. *)
