(** The slot-compiled stack-trimming implementation of Section 3.3: a
    lazy (call-by-need) abstract machine in the style of Sestoft's
    mark-2 machine, extended with the paper's exception machinery, and
    fed by the {!Lang.Resolve} compile-to-slots pass.

    {!alloc} resolves the expression once — variables to (frame, offset)
    slots, constructor names to interned integer tags, allocation sites
    to precomputed free-variable footprints — and the machine then
    evaluates the resolved IR with array-backed environments: no string
    comparison and no string-keyed map on any runtime path
    ([Stats.env_lookups] stays 0; [Stats.slot_reads] counts the array
    reads that replaced it). The name-based original is preserved in
    {!Stg_ref} as the measured baseline; bench Table R quantifies the
    difference.

    The machine is {!Machine_core} over the resolved IR tree: this module
    adds the code form, the control frames and the dispatch loop, and
    re-exports the core's operations at its own types. *)

type addr = int

type 'lam value = 'lam Machine_core.value =
  | MInt of int
  | MChar of char
  | MString of string
  | MCon of int * addr array
  | MClo of 'lam * addr array

type mvalue = Lang.Resolve.lam value
(** A closure's code is its λ template in the resolved IR. *)

type config = Machine_core.config = {
  fuel : int;
  int_bits : int;
  blackhole_nontermination : bool;
  poison_thunks : bool;
  heap_limit : int option;
  stack_limit : int option;
}
(** See {!Machine_core.config}. *)

val default_config : config

type frame
(** The slot machine's control frames. *)

type t =
  (Lang.Resolve.rexpr, Lang.Resolve.lam, frame, unit) Machine_core.machine
(** A machine: heap + counters + pending asynchronous events. Every
    function on {!Machine_core.machine} applies to it. *)

val create :
  ?config:config -> ?trace:Obs.t -> ?rctx:Lang.Resolve.context -> unit -> t
(** See {!Machine_core.create}. *)

val stats : t -> Stats.t
val heap_size : t -> int
val trace : t -> Obs.t
val origin_of : t -> Lang.Exn.t -> Obs.origin option
val pp_exn_with_origin : t -> Lang.Exn.t Fmt.t
val refuel : t -> unit
val set_mask_depth : t -> int -> unit

val alloc : t -> Lang.Syntax.expr -> addr
(** Resolve a closed expression (one {!Lang.Resolve.expr} pass) and
    allocate it as a thunk. *)

val alloc_resolved : t -> Lang.Resolve.rexpr -> addr
(** Allocate an already-resolved expression — the compile-once/run-many
    entry point: resolve with {!Lang.Resolve.expr} ahead of time, then
    allocate it on any number of fresh machines without re-resolving. *)

val alloc_value : t -> mvalue -> addr

val alloc_app : t -> addr -> addr -> addr
(** See {!Machine_core.alloc_app}; the IO driver's [>>=] continuations. *)

val inject_async : t -> at_step:int -> Lang.Exn.t -> unit
(** See {!Machine_core.inject_async}. *)

val clear_async : t -> unit

type failure = Machine_core.failure =
  | Fail_exn of Lang.Exn.t
  | Fail_async of Lang.Exn.t
  | Fail_diverged

val pp_failure : failure Fmt.t
val force : t -> addr -> (mvalue, failure) result
val force_catch : t -> addr -> (mvalue, failure) result
val deep : ?depth:int -> t -> addr -> Semantics.Sem_value.deep

val run_expr :
  ?config:config -> Lang.Syntax.expr -> (mvalue, failure) result * Stats.t
(** One-shot: resolve, allocate, force (no catch), return result and
    stats. *)

val run_deep : ?config:config -> ?depth:int -> Lang.Syntax.expr ->
  Semantics.Sem_value.deep * Stats.t
(** One-shot: resolve, allocate, force deeply. A top-level failure
    appears as [DBad]. *)

val gc : t -> roots:addr list -> addr list
val bad_value : t -> Lang.Exn.t -> mvalue

type to_exn_error = Machine_core.to_exn_error = Not_exn | Exn_err of Lang.Exn.t

val mvalue_to_exn : t -> mvalue -> (Lang.Exn.t, to_exn_error) result
