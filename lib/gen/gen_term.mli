(** Type-directed random term generation for property-based, differential
    and fuzz testing.

    Terms are well-typed by construction (so the only runtime failures are
    the interesting ones: raised exceptions, overflow, and — when
    [letrec_weight > 0] — detectable black holes), closed up to Prelude
    names ({!cfg.use_prelude} terms must be wrapped with
    {!Lang.Prelude.wrap} before evaluation), and terminating by
    construction except through exceptions and the explicit black-holing
    letrec — recursion otherwise enters only through Prelude functions
    applied to finite structures.

    The [sized] size parameter maps {e monotonically} to generation depth,
    so QCheck2's integrated shrinking of the random choices genuinely
    reduces a failing term instead of regenerating an unrelated one; the
    structural {!shrink} below is the complementary explicit reducer used
    by the fuzzer's minimiser.

    Construction is linear in the chosen path: a node's alternatives are
    thunks, and only the one the weighted draw picks is built, so the
    cost of one term is proportional to its size rather than exponential
    in [max_depth]. Building a generator draws no randomness, so a seed
    yields the same term as building every alternative up front would,
    up to the numbering of fresh binder names ([g<N>]); the
    [test/gen_golden.txt] file pins that output. *)

type ty = T_int | T_bool | T_list_int | T_fun_ii
    (** [T_fun_ii] = int → int. *)

type cfg = {
  raise_weight : int;
      (** Relative weight of raise sites (0 = exception-free terms). *)
  div_weight : int;  (** Relative weight of [/] and [%] (0 = no division). *)
  max_depth : int;
  use_prelude : bool;  (** Allow calls to Prelude list functions. *)
  letrec_weight : int;
      (** Relative weight of [letrec] nodes: the detectable black hole of
          Section 5.2 and bounded recursion through a letrec binder
          (0 = none; {!pure_cfg} disables them to keep terms total). *)
  map_exception_weight : int;
      (** Relative weight of [mapException f e] nodes (Section 5.4);
          mappers are identity, a constant relabel, and a payload
          rewrite. *)
  sharing_weight : int;
      (** Relative weight of bindings demanded more than once ([let x = e
          in x + x], shared list elements): the call-by-need sharing whose
          poison-replay the machine must preserve (Section 3.3 fn. 3). *)
  io_combinators : bool;
      (** Allow [Bracket]/[Mask]/[WithTimeout]/[OnException] nodes in
          {!gen_io} programs. *)
}

val default_cfg : cfg
val pure_cfg : cfg
(** No raise sites, no division, no black holes: evaluates to a value. *)

val gen : ?cfg:cfg -> ty -> Lang.Syntax.expr QCheck2.Gen.t
(** A closed term of the given type. *)

val gen_int : ?cfg:cfg -> unit -> Lang.Syntax.expr QCheck2.Gen.t
val gen_list : ?cfg:cfg -> unit -> Lang.Syntax.expr QCheck2.Gen.t

val gen_io : ?cfg:cfg -> unit -> Lang.Syntax.expr QCheck2.Gen.t
(** A closed program of type [IO Int]: [return]/[>>=] chains, [putInt] of
    generated integer expressions, fully-handled [getException]
    recoveries, and (with {!cfg.io_combinators}) bracket / mask / timeout
    / onException skeletons — used to test the semantic and machine IO
    drivers against each other. *)

val gen_conc : ?cfg:cfg -> unit -> Lang.Syntax.expr QCheck2.Gen.t
(** A closed [IO Int] program using [forkIO]/[MVar]s with a fixed,
    deadlock-free communication skeleton and generated payloads — for the
    two concurrent layers only. *)

val print_expr : Lang.Syntax.expr -> string
(** For QCheck counterexample reporting. *)

val shrink : Lang.Syntax.expr -> Lang.Syntax.expr list
(** Structural shrink candidates, smallest first: subterms, β-contractions,
    let/letrec elimination, case collapse to scrutinee or a closed
    alternative, literal reduction. Every candidate strictly decreases
    (AST size, |literal|), so any greedy minimisation loop that replaces a
    term by one of its candidates terminates. *)
