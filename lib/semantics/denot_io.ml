open Lang.Syntax
open Sem_value
open Io_runtime
module Exn = Lang.Exn

module Eval = struct
  type t = { fuel : Denot.handle; oracle : Oracle.t; trace : Obs.t }
  type value = thunk
  type failure = Exn_set.t

  let decode _ v =
    match force v with
    | Bad s -> Failed s
    | Ok_v (VCon (c, args)) -> (
        match (c, args) with
        | c, [ a ] when String.equal c c_return -> Return a
        | c, [ m; k ] when String.equal c c_bind -> Bind (m, k)
        | c, [] when String.equal c c_get_char -> Get_char
        | c, [ a ] when String.equal c c_put_char -> Put_char a
        | c, [ a ] when String.equal c c_get_exception -> Get_exception a
        | c, [ a ] when String.equal c c_evaluate -> Evaluate a
        | c, [ acq; rel; use ] when String.equal c c_bracket ->
            Bracket (acq, rel, use)
        | c, [ m; h ] when String.equal c c_on_exception -> On_exception (m, h)
        | c, [ m ] when String.equal c c_mask -> Mask m
        | c, [ m ] when String.equal c c_unmask -> Unmask m
        | c, [ n; m ] when String.equal c c_timeout -> Timeout (n, m)
        | c, [ n; b; m ] when String.equal c c_retry -> Retry (n, b, m)
        | "Fork", [ m ] -> Fork m
        | "NewMVar", [] -> New_mvar
        | "TakeMVar", [ r ] -> Take_mvar r
        | "PutMVar", [ r; v ] -> Put_mvar (r, v)
        | "NewChan", [ n ] -> New_chan n
        | "ReadChan", [ r ] -> Read_chan r
        | "WriteChan", [ r; v ] -> Write_chan (r, v)
        | "MyThreadId", [] -> My_thread_id
        | "ThrowTo", [ tt; x ] -> Throw_to (tt, x)
        | _ -> Not_io)
    | Ok_v _ -> Not_io

  (* Ask the oracle for a member of [s], recording both the chosen member
     and the members that were *not* chosen — the imprecision the
     operational layer hides. When [s] contains NonTermination the
     oracle may instead take the self-transition (Section 4.4). *)
  let resolve ev s =
    if Oracle.diverge_on_non_termination ev.oracle s then Diverge
    else if Exn_set.is_empty s then Wedged "empty exception set"
    else begin
      let x = Oracle.pick_exception ev.oracle s in
      if Obs.on ev.trace then begin
        let unchosen =
          match Exn_set.elements s with
          | None -> []
          | Some es -> List.filter (fun e -> e <> x) es
        in
        Obs.record ev.trace (Obs.Ev_oracle_pick (x, unchosen))
      end;
      Raise x
    end

  let catch ev ~mask:_ v =
    match force v with
    | Ok_v (VCon (cn, _)) when is_io_action_constructor cn -> Caught_action v
    | Ok_v _ ->
        if Obs.on ev.trace then Obs.record ev.trace (Obs.Ev_catch None);
        Caught_value v
    | Bad s ->
        let fate = resolve ev s in
        (match fate with
        | Raise x when Obs.on ev.trace ->
            Obs.record ev.trace (Obs.Ev_catch (Some x))
        | _ -> ());
        Caught fate

  let whnf _ v = match force v with Ok_v _ -> Ok v | Bad s -> Error s

  let view v f =
    match force v with
    | Bad s -> Arg_failed s
    | Ok_v x -> ( match f x with Some a -> Arg a | None -> Ill_typed)

  let char_of _ v = view v (function VChar c -> Some c | _ -> None)
  let int_of _ v = view v (function VInt n -> Some n | _ -> None)

  let exn_of _ v =
    match exn_of_whnf (force v) with
    | Ok x -> Arg x
    | Error (Bad s) -> Arg_failed s
    | Error _ -> Ill_typed

  let ref_con = function
    | Mvar_ref -> "MVarRef"
    | Chan_ref -> "ChanRef"
    | Thread_ref -> "ThreadId"

  let ref_of _ kind v =
    match force v with
    | Ok_v (VCon (c, [ id ])) when String.equal c (ref_con kind) ->
        view id (function VInt n -> Some n | _ -> None)
    | Ok_v _ -> Ill_typed
    | Bad s -> Arg_failed s

  (* Looking up the next continuation starts a new transition. Without
     the refill, an action whose forcing exhausted the budget (so it
     collapsed to [Bad All]) would poison the force of [k] too — and an
     exception an enclosing catch just caught would spuriously escape as
     uncaught. *)
  let call ev k v =
    Denot.refill ev.fuel;
    view k (function VFun f -> Some (delay (fun () -> f v)) | _ -> None)

  (* Lazy application for release/use functions: an ill-typed "function"
     surfaces as an exceptional IO value, which then unwinds normally. *)
  let apply _ f arg =
    delay (fun () ->
        match force f with
        | Ok_v (VFun f) -> f arg
        | Ok_v _ ->
            Bad
              (Exn_set.singleton
                 (Exn.Type_error "application of a non-function"))
        | Bad s -> Bad s)

  let con c args = from_whnf (Ok_v (VCon (c, args)))
  let pure _ v = con c_return [ v ]
  let unit _ = con c_unit []
  let char _ c = from_whnf (Ok_v (VChar c))

  let ref_value _ kind n =
    con (ref_con kind) [ from_whnf (Ok_v (VInt n)) ]

  let ok _ v = con c_ok [ v ]
  let bad _ x = con c_bad [ from_whnf (exn_to_value x) ]
  let just _ v = con c_just [ v ]
  let nothing _ = con c_nothing []

  (* The final deep force is its own transition: it must not run on
     whatever fuel the last action left over. *)
  let deep ev v =
    Denot.refill ev.fuel;
    deep_force ~depth:64 v

  (* Each transition gets a fresh approximation budget (a transition
     that hits bottom must not starve the rest of the program). *)
  let refuel ev = Denot.refill ev.fuel
  let collect _ roots = roots
end

module Runtime = Io_runtime.Make (Eval)

let run ~config ~oracle ~trace ~concurrent ~input ~async ~kills
    ~check_invariants ~max_steps e =
  let fuel = Denot.handle config in
  let main = delay (fun () -> Denot.eval_in fuel Denot.empty_env e) in
  Runtime.run { Eval.fuel; oracle; trace } ~trace ~concurrent ~input ~async
    ~kills ~check_invariants ~max_steps ~gc_every:None main
