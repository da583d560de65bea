(** The metamorphic layer: every transformation law is a fuzz oracle.

    For each generated pure term [t] and each rule in {!Transform.Rules}
    that fires somewhere in [t] (leftmost-outermost), the rewritten term
    is evaluated alongside the original and the observed relation is
    checked against the rule's {e claimed} status:

    - claimed [Identity] must observe denotational equality;
    - claimed [Refinement] must observe [Equal] or [Refines] — the
      Section 4.5 "legitimate to gain information" direction;
    - claimed [Invalid] may observe anything, but the campaign {e must}
      observe an actual inequality at least once — deliberate non-laws
      are witnessed, not assumed (the built-in corpus replays each
      rule's witnessing instance, so a campaign that finds no witness
      indicates the semantics stopped distinguishing the designs).

    The fixed-order claims are checked the same way under
    {!Semantics.Fixed.Left_to_right}.

    On top of the rule catalogue, four synthetic oracles:

    - {e seq-insert}: for [let x = e in body] with [body] demanded-strict
      in [x], inserting [seq x body] must preserve-or-refine;
    - {e strict-arg-eval}: at the first application [(raise e) a],
      [seq a ((raise e) a)] must denote exactly what [(raise e) a] does
      — an exceptional function is strict, so evaluating its argument
      first is the optimisation Section 4.2 keeps valid by unioning the
      argument's exceptions into the application's;
    - {e widen-plus}: for a term denoting [DInt n] (resp. a finite
      exception set [s]), [t + raise E] must denote exactly [DBad {E}]
      (resp. [DBad (s ∪ {E})]) — the Section 4.2 [⊕] equation run in
      reverse;
    - {e roundtrip}: [parse (pretty t)] is alpha-equal to [t].

    The laws are claimed for well-typed programs (C14's typed-source
    assumption): on a term the type checker rejects, {!check_pure}
    skips the rule catalogue, seq-insert, strict-arg-eval and the
    pipeline oracle's information-gain check (its lint still runs) — an
    ill-typed [case 1 of { True -> … }] makes [case_of_case] fail without
    any fault in the law — and counts the term in {!ill_typed}.

    Terms whose evaluation bottoms out (fuel, black holes) are exempt
    from the equality obligations: at a finite approximation a bottomed
    side sits below everything, so only the refinement direction is
    meaningful there. *)

type state

val create : unit -> state

type violation = {
  oracle : string;
  lhs : Lang.Syntax.expr;  (** Un-wrapped (Prelude-open) original. *)
  rhs : Lang.Syntax.expr;
  detail : string;
}

val pp_violation : violation Fmt.t

val check_pure :
  ?config:Semantics.Denot.config ->
  ?depth:int ->
  state ->
  Lang.Syntax.expr ->
  violation list
(** Run every applicable oracle on one pure term (open over the
    Prelude); tallies applications and non-law witnesses in [state]. *)

val ill_typed : state -> int
(** Terms whose law-based oracles were skipped as ill-typed. *)

val summary : state -> (string * int * int) list
(** Per-oracle [(name, times applied, inequality witnesses)]. *)

val unwitnessed : state -> string list
(** Claimed-[Invalid] rules (imprecise or fixed-order design) whose
    invalidity was never witnessed during the campaign — each entry is a
    failure of the campaign, not of the semantics. *)
