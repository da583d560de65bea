(** The one IO runtime behind every IO layer.

    Section 4.4 gives IO as a labelled transition system over the
    denotation and remarks that the presentation "scales to …
    concurrency". This module is that system, written once: the IO
    continuation frames with their [pop] and [unwind] rules, per-thread
    mask depth, threads, MVars, bounded channels and sleepers on the
    {!Sched} indices, the round-robin scheduler, [throwTo] with kill
    schedules and asynchronous delivery, and the debug-flag index
    checker.

    What it does not own is evaluation. {!Make} takes an {!EVALUATOR}
    that decodes one IO value into the shared {!action} variant, turns a
    failure into a {!fate} (the denotational instance picks a member of
    the exception set through its {!Oracle}; the machine instance reports
    the first exception it met), builds the result values, and — on the
    machine only — collects garbage from the roots the runtime lists.

    The two instances are {!Denot_io} (the denotation) and
    [Machine.Stg_io] (the abstract machine). {!Conc} and
    [Machine.Machine_conc] run them with any number of threads;
    {!Iosem} and [Machine.Machine_io] run the one-thread case, in which
    [forkIO] and the MVar actions are not IO values and a blocking
    channel operation is answered at once with [BlockedIndefinitely]. *)

(** {1 Shared result types} *)

type event =
  | E_write of int * char  (** thread, character written *)
  | E_read of int * char
  | E_fork of int * int  (** parent, child *)
  | E_block of int  (** thread blocked on an MVar or a channel *)
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

type outcome =
  | Done of Sem_value.deep  (** The main thread's result. *)
  | Uncaught of Lang.Exn.t  (** The main thread died. *)
  | Deadlock
      (** No thread can ever run again and every blocked thread is
          masked, so not even [BlockedIndefinitely] can be delivered. *)
  | Diverged
      (** Transition budget exhausted, or a failure resolved to
          divergence. *)
  | Stuck of string  (** Ill-typed IO value, or input exhausted. *)

val pp_event : event Fmt.t
val pp_outcome : outcome Fmt.t

val output_of : event list -> string
(** The characters written, in global order. *)

type counters = {
  mutable async_delivered : int;
  mutable brackets_entered : int;
  mutable brackets_released : int;
  mutable timeouts_fired : int;
  mutable masked_sections : int;
  mutable retries : int;
  mutable throwtos_delivered : int;
  mutable blocked_recoveries : int;
}
(** Fault/exception-safety counters, shared across all threads; see
    {!Iosem.counters} for what each one counts. *)

val fresh_counters : unit -> counters

type schedule = (int * Lang.Exn.t) list
(** Asynchronous events: [(k, x)] delivers [x] at the first unmasked
    [getException] performed at or after clock tick [k]. *)

type kills = (int * int * Lang.Exn.t) list
(** Thread-targeted faults: [(k, tid, x)] queues [x] on thread [tid] once
    the clock reaches [k], as if a live thread had sent
    [throwTo (ThreadId tid) x]. *)

val debug_default : unit -> bool
(** Whether [IMPEXN_SCHED_DEBUG] is set in the environment: the default
    of every layer's [check_invariants]. *)

(** {1 The evaluator interface} *)

(** One IO value, decoded. Fields are undecoded values of the
    evaluator; the runtime extracts characters, integers, references and
    exceptions from them through {!EVALUATOR} as each action needs. *)
type ('v, 'f) action =
  | Return of 'v
  | Bind of 'v * 'v
  | Get_char
  | Put_char of 'v
  | Get_exception of 'v
  | Evaluate of 'v
  | Bracket of 'v * 'v * 'v  (** acquire, release, use *)
  | On_exception of 'v * 'v
  | Mask of 'v
  | Unmask of 'v
  | Timeout of 'v * 'v
  | Retry of 'v * 'v * 'v  (** attempts, backoff, action *)
  | Fork of 'v
  | New_mvar
  | Take_mvar of 'v
  | Put_mvar of 'v * 'v
  | New_chan of 'v
  | Read_chan of 'v
  | Write_chan of 'v * 'v
  | My_thread_id
  | Throw_to of 'v * 'v
  | Failed of 'f  (** The IO value itself is exceptional. *)
  | Not_io

(** What a failure amounts to, once the evaluator has resolved it. *)
type fate =
  | Raise of Lang.Exn.t  (** Unwind the thread with this exception. *)
  | Diverge  (** End the program as [Diverged]. *)
  | Wedged of string  (** End the program as [Stuck]. *)

(** An argument extracted from a value. *)
type ('a, 'f) arg = Arg of 'a | Arg_failed of 'f | Ill_typed

(** The result of [getException]'s evaluation under a catch mark. *)
type 'v caught =
  | Caught_action of 'v
      (** An IO action: perform it under a catch frame (GHC's [try]). *)
  | Caught_value of 'v  (** A normal value, already in WHNF. *)
  | Caught of fate

type ref_kind = Mvar_ref | Chan_ref | Thread_ref

module type EVALUATOR = sig
  type t
  type value
  type failure

  val decode : t -> value -> (value, failure) action
  (** Force an IO value to weak-head normal form and name its action. *)

  val resolve : t -> failure -> fate

  val catch : t -> mask:int -> value -> value caught
  (** Evaluate [getException]'s argument under a catch mark, with
      asynchronous delivery deferred while [mask > 0]. The evaluator
      records the catch in its flight recorder. *)

  val whnf : t -> value -> (value, failure) result
  (** [evaluate]'s forcing: the argument, in WHNF. *)

  val char_of : t -> value -> (char, failure) arg
  val int_of : t -> value -> (int, failure) arg
  val exn_of : t -> value -> (Lang.Exn.t, failure) arg
  val ref_of : t -> ref_kind -> value -> (int, failure) arg

  val call : t -> value -> value -> (value, failure) arg
  (** [call k v]: force the continuation [k] — the start of a new
      transition — and apply it to [v]. *)

  val apply : t -> value -> value -> value
  (** Lazy application (bracket release and use functions). *)

  val pure : t -> value -> value  (** [Return v] *)

  val unit : t -> value
  val char : t -> char -> value
  val ref_value : t -> ref_kind -> int -> value
  val ok : t -> value -> value
  val bad : t -> Lang.Exn.t -> value
  val just : t -> value -> value
  val nothing : t -> value

  val deep : t -> value -> Sem_value.deep
  (** The main thread's final value, forced deeply. *)

  val refuel : t -> unit
  (** Called once at the start of every transition. *)

  val collect : t -> value list -> value list
  (** Garbage collection from the given roots; returns them relocated,
      in order. *)
end

(** {1 The runtime} *)

type result = {
  events : event list;
  outcome : outcome;
  threads_spawned : int;
  switches : int;  (** Transitions taken (one per thread step). *)
  clock : int;
      (** The clock at exit: [switches] plus the ticks sleepers were
          fast-forwarded over. *)
  counters : counters;
}

module Make (E : EVALUATOR) : sig
  val run :
    E.t ->
    trace:Obs.t ->
    concurrent:bool ->
    input:string ->
    async:schedule ->
    kills:kills ->
    check_invariants:bool ->
    max_steps:int ->
    gc_every:int option ->
    E.value ->
    result
  (** Perform the IO value on a fresh runtime (see the module
      description). The run ends as [Diverged] once the clock reaches
      [max_steps]. [gc_every k] collects garbage every [k] clock ticks;
      a caught [HeapOverflow] also schedules a collection before the
      next transition. [check_invariants] validates the scheduler
      indices every round and raises {!Obs.Machine_invariant} with a
      flight-recorder dump on violation. *)
end
