(** The flat bytecode backend: {!Lang.Resolve} IR compiled once into a
    contiguous instruction array (int opcodes + inline operand words),
    evaluated by a register-style dispatch loop.

    Where {!Stg} walks a tree-shaped IR and allocates a [code] variant on
    every transition, this machine keeps its state in four registers
    (mode, program counter, environment, accumulator) and advances by
    reading int words out of a frozen code array — no per-dispatch
    allocation, no pointer-chasing through expression nodes. Three
    superinstructions fuse the measured hot transition pairs of the slot
    machine (push-apply + enter a variable, allocate-thunk + bind,
    push-case + force a variable scrutinee), and every case site carries
    a monomorphic inline cache for constructor tag dispatch
    ([Stats.ic_hits]/[Stats.ic_misses]; the table walk is the miss path).

    The machine is {!Machine_core} over the code array, as {!Stg} is over
    the IR tree: one heap, one unwinding discipline, one collector. Its
    per-step preamble runs the slot machine's checks in the same order
    (fuel, stack latch, heap latch, async poll), so the two backends
    agree transition for transition, counters included. The six-way
    differential fuzzer holds it to the same C13 membership bound as the
    others. *)

type addr = int

type program
(** A compiled program: frozen code array plus constant pools (strings,
    closure and thunk templates, case sites with their inline caches,
    prim sites, raise labels). Compile once, run on any number of
    machines; sharing is sound because a case site's tag-to-branch
    mapping is static, so its inline cache is valid across machines. *)

val compile : Lang.Resolve.rexpr -> program
(** Compile resolved IR. Compilation is context-free: tags are already
    interned ints, so the resolving context is only needed again at
    runtime (pass it to {!create} as [rctx]).

    A root letrec over a Prelude image ({!Lang.Resolve.is_prelude_image})
    is linked: the image's bindings are compiled once into a segment,
    and the program is a copy of that segment followed by its own body,
    with fresh case sites. It runs exactly as the in-place compile
    would, counters included. *)

val compile_expr : ?ctx:Lang.Resolve.context -> Lang.Syntax.expr -> program
(** Resolve then compile a closed source expression. *)

val code_words : program -> int
(** Length of the frozen code array, in words (static accounting). *)

type 'lam value = 'lam Machine_core.value =
  | MInt of int
  | MChar of char
  | MString of string
  | MCon of int * addr array
  | MClo of 'lam * addr array

type mvalue = int value
(** A closure's code is an index into the program's template pool. *)

type config = Stg.config

type failure = Stg.failure =
  | Fail_exn of Lang.Exn.t
  | Fail_async of Lang.Exn.t
  | Fail_diverged

val pp_failure : failure Fmt.t

type bframe
(** The bytecode machine's control frames. *)

type t = (int, int, bframe, program) Machine_core.machine
(** A machine instance bound to one compiled program. Every function on
    {!Machine_core.machine} applies to it. *)

val create :
  ?config:config -> ?trace:Obs.t -> ?rctx:Lang.Resolve.context -> program -> t

val entry : t -> addr
(** Allocate the program's entry point as a fresh thunk (each call is an
    independent evaluation root). *)

val stats : t -> Stats.t
val heap_size : t -> int
val trace : t -> Obs.t
val inject_async : t -> at_step:int -> Lang.Exn.t -> unit
val clear_async : t -> unit
val force : t -> addr -> (mvalue, failure) result
val force_catch : t -> addr -> (mvalue, failure) result
val deep : ?depth:int -> t -> addr -> Semantics.Sem_value.deep
val gc : t -> roots:addr list -> addr list

val run_deep :
  ?config:config ->
  ?depth:int ->
  Lang.Syntax.expr ->
  Semantics.Sem_value.deep * Stats.t
(** One-shot: resolve, compile, evaluate deeply on a fresh machine. *)
