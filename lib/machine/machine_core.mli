(** The machine core under both compiled backends, {!Stg} and
    {!Bytecode}: the paper's stack-trimming abstract machine minus its
    code form. Its exception machinery:

    - [getException] "marks the evaluation stack": {!force_catch} runs the
      machine with a catch mark at the bottom of the stack.
    - [raise ex] "simply trims the stack to the topmost mark": unwinding
      pops frames, and every update frame passed on the way has its thunk
      overwritten with [raise ex] ({!poison}), so re-evaluation re-raises
      the same exception (Section 3.3's correctness requirement).
    - Thunks under evaluation are black-holed; *entering* a black hole is a
      detectable bottom, which the machine is "permitted but not required"
      to report as [NonTermination] (Section 5.2) — controlled by
      [blackhole_nontermination].
    - Asynchronous events unwind like [raise], except that each abandoned
      thunk is overwritten with a *resumable* pause cell capturing the
      stack segment above it, so no work is lost (Section 5.1's
      "fascinating wrinkle", {!unwind_async}). Re-entering a pause cell
      resumes evaluation exactly where it stopped.

    The machine computes with single exceptions (the representative member
    of the semantic exception set); the differential test C13 checks that
    the exception it finds is always a member of the denotational set.

    This module holds that machinery and everything else the backends
    share: values, environments and heap cells, the machine record with
    its fuel, masks and asynchronous queue, reading an exception back out
    of a value, deep forcing and the copying collector.

    A backend fixes four type parameters — its code form ['body] (what a
    thunk or a paused position runs), its closure code ['lam], its control
    frames ['frame] and its compiled program ['prog] — and supplies the
    few operations the core cannot write without them as an {!ops}
    record. Its per-step code (slot lookup, the fuel/latch/async
    preamble, thunk allocation, primitives) and its dispatch loop stay in
    the backend: calls across modules are not inlined here, so moving a
    per-step helper would add a real call to every step. *)

type addr = int

type 'lam value =
  | MInt of int
  | MChar of char
  | MString of string
  | MCon of int * addr array
      (** Constructor tag interned by {!Lang.Resolve.con_tag}; recover
          the name with {!Lang.Resolve.con_name}. *)
  | MClo of 'lam * addr array  (** Closure: code + captured addresses. *)

and env = Env_nil | Env_frame of addr array * env

(** A machine position: evaluate code in an environment, force an
    address, or return a value to the top frame. *)
type ('body, 'lam) code =
  | C_eval of 'body * env
  | C_enter of addr
  | C_ret of 'lam value

type ('body, 'lam, 'frame) cell =
  | Cell_thunk of 'body * env
  | Cell_value of 'lam value
  | Cell_blackhole
  | Cell_raise of Lang.Exn.t * Obs.origin
      (** Thunk poisoned by a synchronous unwinding (Section 3.3); the
          origin of the raise rides along so a later re-entry still
          reports where the exception originally came from. *)
  | Cell_paused of ('body, 'lam) code * 'frame list
      (** Resumable continuation left by an asynchronous unwinding
          (Section 5.1): the position to resume and the stack segment
          above the thunk's update frame (top first). *)
  | Cell_unused

type config = {
  fuel : int;  (** Machine steps before reporting divergence. *)
  int_bits : int;
  blackhole_nontermination : bool;
      (** Report a re-entered black hole as [NonTermination] rather than
          diverging (Section 5.2). *)
  poison_thunks : bool;
      (** Ablation (default [true]): overwrite abandoned thunks with
          [raise ex] during synchronous unwinding, as Section 3.3
          requires. With [false] the black hole is left in place and
          re-evaluation wrongly reports non-termination — the bug the
          paper's footnote 3 warns about. *)
  heap_limit : int option;
      (** Soft heap ceiling in cells (default [None]): when the heap
          reaches it, the machine raises [HeapOverflow] through the
          ordinary trim-the-stack path — a catchable imprecise exception,
          so a supervisor under [getException] can recover. The check
          then stays disarmed until {!gc} brings the heap back under the
          limit (the raise itself frees nothing). *)
  stack_limit : int option;
      (** Stack ceiling in frames (default [None]): exceeding it raises
          [StackOverflow] synchronously, trimming (and poisoning) the
          frames that overflowed. *)
}

val default_config : config

type failure =
  | Fail_exn of Lang.Exn.t  (** Uncaught synchronous exception. *)
  | Fail_async of Lang.Exn.t
      (** An asynchronous event delivered to the active catch. *)
  | Fail_diverged  (** Fuel exhausted, or a black hole re-entered. *)

val pp_failure : failure Fmt.t

(** Why a WHNF value could not be read back as an exception constant:
    not an exception at all (the caller chooses the message), or
    interpreting it raised an exception of its own (an exceptional
    payload propagates). *)
type to_exn_error = Not_exn | Exn_err of Lang.Exn.t

exception Machine_stuck of failure
(** Ends a run with [Error]: raised by a backend's step and by the
    core's unwinding, caught at the backend's run boundary. *)

exception Prim_type_error of string
(** A primitive or pattern-match type error inside a run: the backend
    catches it at its loop boundary and re-enters it as an ordinary
    synchronous raise, so it unwinds the stack exactly like any other
    exception — the denotational semantics makes no distinction. *)

(** A machine: heap, counters, pending asynchronous events, provenance,
    bound to one backend's program. The fields are the backends'
    per-step state; everything else reaches them through the functions
    below. *)
type ('body, 'lam, 'frame, 'prog) machine = {
  prog : 'prog;
  ops : ('body, 'lam, 'frame, 'prog) ops;
  app : 'body;  (** The [$f $x] template over a [[|f; x|]] frame. *)
  mutable heap : ('body, 'lam, 'frame) cell Growarray.t;
  stats : Stats.t;
  cfg : config;
  rctx : Lang.Resolve.context;
      (** Every piece of per-machine state lives in this record: the
          serve daemon's re-entrancy audit holds the machine to "no
          hidden process state". *)
  mutable fuel_left : int;
  mutable async : (int * Lang.Exn.t) list;  (** In step order. *)
  mutable mask_depth : int;
  mutable heap_check_armed : bool;
      (** The heap limit fires once, then stays disarmed until {!gc}
          brings the heap back under it: the raise itself frees nothing,
          so without the latch every later step would re-raise before a
          supervisor could recover. *)
  trace : Obs.t;
  prov : Obs.provenance;
      (** Origin of the most recent raise of each exception constant,
          kept whether or not the recorder is on (raises are off the
          per-step path). *)
}

(** What a backend tells the core. *)
and ('body, 'lam, 'frame, 'prog) ops = {
  run :
    ('body, 'lam, 'frame, 'prog) machine ->
    catch:bool ->
    ('body, 'lam) code ->
    ('lam value, failure) result;
      (** The dispatch loop. [catch] marks the bottom of this run's stack
          as a getException catch mark: raises and asynchronous events
          that unwind all the way down are returned as [Error]. *)
  app_of : 'prog -> 'body;  (** The program's [$f $x] template. *)
  update_of : 'frame -> addr;
      (** The thunk an update frame will overwrite; [-1] for every other
          frame (the pause walk asks this of every frame it passes, so
          the answer is not boxed). *)
  relocate :
    (addr -> addr) -> (env -> env) -> ('lam value -> 'lam value) -> 'frame ->
    'frame;
      (** Rewrite the addresses inside a frame, for {!gc}. *)
}

val create :
  ('b, 'l, 'f, 'p) ops -> ?config:config -> ?trace:Obs.t ->
  ?rctx:Lang.Resolve.context -> 'p -> ('b, 'l, 'f, 'p) machine
(** [trace] is the flight recorder this machine reports into (default: a
    fresh, disabled recorder — tracing costs one dead branch on the
    exceptional paths and nothing on the per-step fast path). [rctx] is
    the constructor-interning context the machine's code was resolved
    against (default {!Lang.Resolve.global_context}); a machine only
    reads names through its own context, so embedders can sandbox a
    tenant's constructor vocabulary. *)

val stats : (_, _, _, _) machine -> Stats.t
val heap_size : (_, _, _, _) machine -> int

val trace : (_, _, _, _) machine -> Obs.t
(** The machine's flight recorder (enable/inspect it through {!Obs}). *)

val origin_of : (_, _, _, _) machine -> Lang.Exn.t -> Obs.origin option
(** Provenance of the most recent raise of this exception constant:
    raise-site label, stack depth and step number. Maintained whether or
    not the recorder is on. *)

val pp_exn_with_origin : (_, _, _, _) machine -> Lang.Exn.t Fmt.t
(** Print an exception annotated with its origin, when known. *)

val invariant_failure : (_, _, _, _) machine -> string -> 'a
(** A broken unwind or a return into an empty stack mid-step: fatal, but
    debuggable — raises [Obs.Machine_invariant] carrying the
    flight-recorder dump and a stats snapshot. *)

val refuel : (_, _, _, _) machine -> unit
(** Reset the step budget to [config.fuel] — the machine counterpart of
    {!Semantics.Denot.refill}, used by long-running drivers so one
    divergent transition does not starve the rest of the program. *)

val set_mask_depth : (_, _, _, _) machine -> int -> unit
(** Set the asynchronous-exception mask depth. While positive, pending
    async events are deferred even under a catch mark — this is how
    [bracket]'s acquire and release phases (and explicit [Mask] sections)
    are protected from being torn mid-flight. The IO runtime keeps each
    thread's depth and sets it before every catch. *)

val inject_async : (_, _, _, _) machine -> at_step:int -> Lang.Exn.t -> unit
(** Schedule an asynchronous event: it fires at the first step at or after
    [at_step] *while a catch mark is active and the mask depth is zero*
    (events are delivered only to [getException], Section 5.1);
    otherwise it stays pending. Events fire in step order whatever the
    order they were injected in; events due at the same step fire in
    injection order. *)

val clear_async : (_, _, _, _) machine -> unit
(** Drop every pending asynchronous event. The serve daemon slices
    evaluation by injecting an interrupt each [slice] steps; once a
    request reaches WHNF the unfired interrupt must be withdrawn before
    deep-forcing, or it would tear a structure field mid-print. *)

val alloc_value : ('b, 'l, 'f, 'p) machine -> 'l value -> addr

val alloc_thunk : ('b, 'l, 'f, 'p) machine -> 'b -> addr
(** Allocate closed code as a fresh thunk (an evaluation root). *)

val alloc_app : (_, _, _, _) machine -> addr -> addr -> addr
(** [alloc_app m f x]: a thunk for the application of the function at [f]
    to the argument at [x], through the program's [$f $x] template. *)

val exn_to_mvalue : ('b, 'l, 'f, 'p) machine -> Lang.Exn.t -> 'l value

val bad_value : ('b, 'l, 'f, 'p) machine -> Lang.Exn.t -> 'l value
(** [Bad e]: the value a catch reifies a raised [e] as. *)

val mvalue_to_exn :
  ('b, 'l, 'f, 'p) machine -> 'l value -> (Lang.Exn.t, to_exn_error) result
(** Interpret a WHNF value as an exception constant; forces the payload
    in a nested run. *)

val raised_exn : ('b, 'l, 'f, 'p) machine -> 'l value -> Lang.Exn.t
(** The exception [raise v] raises: {!mvalue_to_exn}'s, the payload's own
    exception, or a type error when [v] is not an exception. *)

val mapped_exn : (_, _, _, _) machine -> addr -> Lang.Exn.t -> Lang.Exn.t
(** [mapped_exn m f e]: apply [mapException]'s function at [f] to [e] in
    a nested run and read the result back as the exception that keeps
    unwinding (Section 5.4). *)

val note_raise :
  (_, _, _, _) machine -> depth:int -> string -> Lang.Exn.t -> Obs.origin
(** Register the origin of a raise at a labelled site and record it when
    the recorder is on. *)

val note_reraise : (_, _, _, _) machine -> Obs.origin -> Lang.Exn.t -> unit
(** A poisoned thunk was re-entered: its raise replays with its original
    origin. *)

val poison :
  (_, _, _, _) machine -> addr -> Lang.Exn.t -> Obs.origin -> unit
(** The synchronous unwind's step over an update frame (Section 3.3):
    overwrite the abandoned thunk with [raise ex], unless the
    [poison_thunks] ablation is on. *)

val unwind_async :
  ('b, 'l, 'f, 'p) machine -> depth:int -> ('b, 'l) code -> 'f list ->
  Lang.Exn.t -> 'a
(** [unwind_async m ~depth cur stack e] delivers [e] (Section 5.1):
    every update frame on [stack] pauses its thunk with the stack
    segment above it, the innermost resuming at [cur], so the abandoned
    work resumes exactly where it stopped. Ends the run with
    [Machine_stuck (Fail_async e)]. *)

val force : ('b, 'l, 'f, 'p) machine -> addr -> ('l value, failure) result
(** Evaluate to WHNF with no catch mark: a raise is an uncaught exception;
    asynchronous events stay pending. *)

val force_catch : ('b, 'l, 'f, 'p) machine -> addr -> ('l value, failure) result
(** Evaluate to WHNF under a catch mark — the evaluation part of
    [getException]. [Error (Fail_exn e)] means [e] was caught. *)

val deep :
  ?depth:int -> (_, _, _, _) machine -> addr -> Semantics.Sem_value.deep
(** Force the structure rooted at [addr] recursively (catching per-field
    failures as [DBad] singletons, divergence as [DBad All]). *)

val run_deep :
  ('b, 'l, 'f, 'p) ops -> ?config:config -> ?depth:int -> 'p -> 'b ->
  Semantics.Sem_value.deep * Stats.t
(** One-shot: a fresh machine on the program, its code allocated as the
    root and forced deeply. A top-level failure appears as [DBad]. *)

val gc : (_, _, _, _) machine -> roots:addr list -> addr list
(** Copying garbage collection over the machine heap. Must be called
    between runs (no evaluation in progress); [roots] are the addresses
    the caller still holds, and the relocated addresses are returned in
    the same order. Every other address becomes invalid. Pause cells and
    poisoned thunks survive with their contents intact, so interrupted
    computations stay resumable across collections. Re-arms the heap
    latch when the live heap fits under the limit again. *)
