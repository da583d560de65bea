(** The operational semantics of the IO layer (Section 4.4), on top of the
    denotational semantics of the pure fragment.

    [IO] is treated as an algebraic data type with constructors [Return],
    [Bind], [PutChar], [GetChar] and [GetException]; this module is the
    labelled transition system that *performs* a value of that type:

    {v
    m1 → m2  ⟹  (m1 >>= k) → (m2 >>= k)
    (return v) >>= k → k v
    getChar  —?c→  return c
    putChar c —!c→ return ()
    getException (Ok v)  → return (OK v)
    getException (Bad s) → return (Bad x)      if x ∈ s
    getException (Bad s) → getException (Bad s) if NonTermination ∈ s
    getException v —¡x→  return (Bad x)        x an asynchronous event
    v}

    The oracle resolves the non-deterministic choices; asynchronous events
    are injected by a deterministic schedule (fire after a given number of
    transitions), exercising the Section 5.1 rule reproducibly.

    On top of the paper's five constructors sit the exception-safety
    combinators in the style of GHC's [Control.Exception] ([Bracket],
    [OnException], [Mask], [Unmask], [WithTimeout], [Retry]). They are
    implemented with an explicit IO continuation stack: normal returns pop
    frames, exceptions trim them — running registered releases and
    handlers on the way down. [Bracket]'s acquire and every release run
    masked (async events and timeouts are deferred), so a cleanup can
    never be torn mid-flight.

    This driver is the one-thread case of {!Io_runtime}, over the
    denotational instance {!Denot_io} — the same runtime {!Conc} runs
    with many threads. [forkIO] and the MVar actions are not IO values
    here; a channel operation that would block can never be woken, so
    it receives the catchable [BlockedIndefinitely] at once. *)

type event =
  | E_read of char  (** [?c] — a character was read. *)
  | E_write of char  (** [!c] — a character was written. *)
  | E_async of Lang.Exn.t  (** [¡x] — an asynchronous event was delivered. *)

type outcome =
  | Done of Sem_value.deep  (** [main] performed to [return v]. *)
  | Uncaught of Lang.Exn.t
      (** The final value (or the IO structure itself) was exceptional:
          "this simply corresponds to an uncaught exception, which the
          implementation should report" (Section 4.4). *)
  | Io_diverged
      (** Transition budget exhausted, or the oracle chose the
          self-transition for a [NonTermination] set. *)
  | Stuck of string  (** Ill-typed IO value, or input exhausted. *)

type counters = Io_runtime.counters = {
  mutable async_delivered : int;
      (** Asynchronous events actually delivered (not deferred by a
          mask). *)
  mutable brackets_entered : int;
      (** Acquire phases that completed, registering a release. *)
  mutable brackets_released : int;
      (** Releases run; equals [brackets_entered] whenever the program
          terminated ([Done]/[Uncaught]). *)
  mutable timeouts_fired : int;  (** [WithTimeout] deadlines that expired. *)
  mutable masked_sections : int;
      (** Times async delivery was masked (explicit [Mask], bracket
          acquire, every cleanup). *)
  mutable retries : int;  (** [Retry] re-attempts actually taken. *)
  mutable throwtos_delivered : int;
      (** Thread-targeted exceptions that reached their target (only the
          concurrent layer {!Conc} can deliver them). *)
  mutable blocked_recoveries : int;
      (** Blocked threads woken exceptionally with [BlockedIndefinitely]
          ({!Conc}'s per-thread deadlock recovery). *)
}

val fresh_counters : unit -> counters

type result = { trace : event list; outcome : outcome; counters : counters }

val pp_event : event Fmt.t
val pp_outcome : outcome Fmt.t

type schedule = Io_runtime.schedule
(** Asynchronous events: [(k, x)] delivers [x] at the first [getException]
    performed at or after transition [k]. *)

val run :
  ?config:Denot.config ->
  ?oracle:Oracle.t ->
  ?trace:Obs.t ->
  ?input:string ->
  ?async:schedule ->
  ?max_steps:int ->
  Lang.Syntax.expr ->
  result
(** Perform a closed expression of type [IO t]. [trace] receives a
    structured event per oracle pick (chosen member plus the un-chosen
    rest of the set), catch, async delivery, mask transition, bracket
    acquire/release and timeout. *)

val output_string_of : result -> string
(** The characters written, in order. *)
