(** The external oracle consulted by [getException] (Section 3.5: "free —
    although absolutely not required — to consult some external oracle (the
    FT Share Index, say)").

    A deterministic seeded RNG plus fixed policies, so every experiment is
    reproducible while still exhibiting the non-determinism the semantics
    allows: different seeds may pick different members of an exception
    set. *)

type t

val create : seed:int -> t
(** Seeded pseudo-random oracle. *)

val first : unit -> t
(** Always picks the first (smallest) element and never diverges — what a
    real single-representative implementation does (Section 3.5). *)

val replay : ?uncaught:Lang.Exn.t -> Obs.t -> t
(** An oracle scripted by an implementation's run, so a semantic layer
    checked against that implementation makes the implementation's legal
    choices instead of comparing two different legal ones. The script is
    the synchronous exceptions the recorder saw caught ([Ev_catch]), in
    order, then [uncaught] (the run's uncaught exception, if any). Each
    exception pick takes the script's head when it is a member of the
    set and otherwise falls back to {!first}, leaving the head in place
    and noting it in {!off_script}. Otherwise behaves as {!first}; a
    recorder that overflowed yields a plain {!first} oracle. *)

val off_script : t -> (Lang.Exn.t * Exn_set.t) list
(** The picks where the script's head was not a member of the offered
    set, oldest first: [(scripted exception, set)]. Empty for unscripted
    oracles. *)

val pick : t -> 'a list -> 'a option
(** Choose a member; [None] on the empty list. *)

val pick_exception : t -> Exn_set.t -> Lang.Exn.t
(** Choose a member of a non-empty exception set. For [All] the oracle may
    return *any* exception — the "fictitious exceptions" of Section 5.3 —
    drawn from {!Lang.Exn.all_known}. *)

val diverge_on_non_termination : t -> Exn_set.t -> bool
(** Whether [getException] should take the "make a transition to the same
    state" rule (Section 4.4) for this set, i.e. diverge. Only possible
    when [NonTermination] is a member; the [first] oracle never diverges. *)

val coin : t -> bool
val int_below : t -> int -> int
