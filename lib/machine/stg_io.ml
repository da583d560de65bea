open Semantics.Io_runtime
module R = Lang.Resolve

module Eval = struct
  type t = Stg.t
  type value = Stg.addr
  type failure = Stg.failure

  let decode m a =
    match Stg.force m a with
    | Error f -> Failed f
    | Ok (Stg.MCon (c, args)) -> (
        match args with
        | [| v |] when c = R.t_return -> Return v
        | [| m1; k |] when c = R.t_bind -> Bind (m1, k)
        | [||] when c = R.t_get_char -> Get_char
        | [| v |] when c = R.t_put_char -> Put_char v
        | [| v |] when c = R.t_get_exception -> Get_exception v
        | [| v |] when c = R.t_evaluate -> Evaluate v
        | [| acq; rel; use |] when c = R.t_bracket -> Bracket (acq, rel, use)
        | [| m1; h |] when c = R.t_on_exception -> On_exception (m1, h)
        | [| m1 |] when c = R.t_mask -> Mask m1
        | [| m1 |] when c = R.t_unmask -> Unmask m1
        | [| n; m1 |] when c = R.t_timeout -> Timeout (n, m1)
        | [| n; b; m1 |] when c = R.t_retry -> Retry (n, b, m1)
        | [| m1 |] when c = R.t_fork -> Fork m1
        | [||] when c = R.t_new_mvar -> New_mvar
        | [| r |] when c = R.t_take_mvar -> Take_mvar r
        | [| r; v |] when c = R.t_put_mvar -> Put_mvar (r, v)
        | [| n |] when c = R.t_new_chan -> New_chan n
        | [| r |] when c = R.t_read_chan -> Read_chan r
        | [| r; v |] when c = R.t_write_chan -> Write_chan (r, v)
        | [||] when c = R.t_my_thread_id -> My_thread_id
        | [| tt; x |] when c = R.t_throw_to -> Throw_to (tt, x)
        | _ -> Not_io)
    | Ok _ -> Not_io

  (* The machine computes with one representative exception: the one its
     stack-trimming evaluation met first (Section 3.5). Running out of
     fuel is divergence. *)
  let resolve _ = function
    | Stg.Fail_exn x -> Raise x
    | Stg.Fail_diverged -> Diverge
    | Stg.Fail_async _ -> Wedged "async event outside getException"

  (* The thread's mask depth is synced into the machine so [force_catch]
     defers asynchronous delivery while the thread is masked. *)
  let catch m ~mask a =
    Stg.set_mask_depth m mask;
    match Stg.force_catch m a with
    | Ok (Stg.MCon (c, _)) when R.is_io_action_tag c -> Caught_action a
    | Ok _ -> Caught_value a
    | Error (Stg.Fail_exn x | Stg.Fail_async x) -> Caught (Raise x)
    | Error Stg.Fail_diverged -> Caught Diverge

  let whnf m a = Result.map (Stg.alloc_value m) (Stg.force m a)

  let view m a f =
    match Stg.force m a with
    | Error e -> Arg_failed e
    | Ok v -> ( match f v with Some x -> Arg x | None -> Ill_typed)

  let char_of m a = view m a (function Stg.MChar c -> Some c | _ -> None)
  let int_of m a = view m a (function Stg.MInt n -> Some n | _ -> None)

  let exn_of m a =
    match Stg.force m a with
    | Error e -> Arg_failed e
    | Ok v -> (
        match Stg.mvalue_to_exn m v with
        | Ok x -> Arg x
        | Error (Stg.Exn_err x) -> Arg_failed (Stg.Fail_exn x)
        | Error Stg.Not_exn -> Ill_typed)

  let ref_tag = function
    | Mvar_ref -> R.t_mvar_ref
    | Chan_ref -> R.t_chan_ref
    | Thread_ref -> R.t_thread_id

  let ref_of m kind a =
    match Stg.force m a with
    | Ok (Stg.MCon (c, [| id |])) when c = ref_tag kind -> int_of m id
    | Ok _ -> Ill_typed
    | Error e -> Arg_failed e

  let call m k v =
    view m k (function Stg.MClo _ -> Some (Stg.alloc_app m k v) | _ -> None)

  let apply = Stg.alloc_app
  let con m tag args = Stg.alloc_value m (Stg.MCon (tag, args))
  let pure m v = con m R.t_return [| v |]
  let unit m = con m R.t_unit [||]
  let char m c = Stg.alloc_value m (Stg.MChar c)

  let ref_value m kind n =
    con m (ref_tag kind) [| Stg.alloc_value m (Stg.MInt n) |]

  let ok m v = con m R.t_ok [| v |]
  let bad m x = Stg.alloc_value m (Stg.bad_value m x)
  let just m v = con m R.t_just [| v |]
  let nothing m = con m R.t_nothing [||]
  let deep m a = Stg.deep m a
  let refuel = Stg.refuel
  let collect m roots = Stg.gc m ~roots
end

module Runtime = Semantics.Io_runtime.Make (Eval)

let run ?config ?trace ~concurrent ~input ~async ~kills ~check_invariants
    ~max_steps ~gc_every e =
  let m = Stg.create ?config ?trace () in
  List.iter (fun (k, x) -> Stg.inject_async m ~at_step:k x) async;
  let main = Stg.alloc m e in
  let r =
    Runtime.run m ~trace:(Stg.trace m) ~concurrent ~input ~async:[] ~kills
      ~check_invariants ~max_steps ~gc_every main
  in
  (* The runtime's exception-safety counters join the machine's own. *)
  let s = Stg.stats m and c = r.counters in
  s.Stats.async_delivered <- s.Stats.async_delivered + c.async_delivered;
  s.Stats.brackets_entered <- s.Stats.brackets_entered + c.brackets_entered;
  s.Stats.brackets_released <- s.Stats.brackets_released + c.brackets_released;
  s.Stats.timeouts_fired <- s.Stats.timeouts_fired + c.timeouts_fired;
  s.Stats.masked_sections <- s.Stats.masked_sections + c.masked_sections;
  s.Stats.throwtos_delivered <-
    s.Stats.throwtos_delivered + c.throwtos_delivered;
  s.Stats.blocked_recoveries <-
    s.Stats.blocked_recoveries + c.blocked_recoveries;
  (r, s)
