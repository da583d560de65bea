open Lang.Syntax
open Sem_value
module Exn = Lang.Exn

type event = E_read of char | E_write of char | E_async of Exn.t

type outcome =
  | Done of deep
  | Uncaught of Exn.t
  | Io_diverged
  | Stuck of string

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

let fresh_counters () =
  {
    async_delivered = 0;
    brackets_entered = 0;
    brackets_released = 0;
    timeouts_fired = 0;
    masked_sections = 0;
    retries = 0;
    throwtos_delivered = 0;
    blocked_recoveries = 0;
  }

type result = { trace : event list; outcome : outcome; counters : counters }

type schedule = (int * Exn.t) list

let pp_event ppf = function
  | E_read c -> Fmt.pf ppf "?%C" c
  | E_write c -> Fmt.pf ppf "!%C" c
  | E_async e -> Fmt.pf ppf "async(%a)" Exn.pp e

let pp_outcome ppf = function
  | Done d -> Fmt.pf ppf "Done %a" pp_deep d
  | Uncaught e -> Fmt.pf ppf "Uncaught %a" Exn.pp e
  | Io_diverged -> Fmt.string ppf "Io_diverged"
  | Stuck msg -> Fmt.pf ppf "Stuck %S" msg

type chan = { cap : int; buf : Sem_value.thunk Queue.t }

type state = {
  oracle : Oracle.t;
  mutable input : char list;
  mutable async : schedule;
  mutable steps : int;
  max_steps : int;
  mutable trace_rev : event list;
}

let emit st ev = st.trace_rev <- ev :: st.trace_rev

(* The pending asynchronous event, if its delivery step has been reached
   (Section 5.1): events are delivered only at getException. *)
let pending_async st =
  match st.async with
  | (k, x) :: rest when st.steps >= k ->
      st.async <- rest;
      Some x
  | _ -> None

(* The IO continuation stack. Plain [>>=] continuations ride alongside the
   administrative frames of the exception-safety combinators; normal
   returns pop frames with [pop], exceptions trim them with [unwind] —
   running the protected cleanups on the way down, exactly like the
   machine's trim-the-stack rule but one level up. *)
type frame =
  | F_k of thunk  (** [>>=] continuation awaiting the result. *)
  | F_bracket of thunk * thunk
      (** [(release, use)] — the acquire action is running (masked). *)
  | F_release of thunk
      (** The applied release action; runs on either exit path. *)
  | F_onexn of thunk  (** Handler, run only on the exceptional path. *)
  | F_mask_pop  (** Leave a [Mask] section. *)
  | F_unmask_pop  (** Leave an [Unmask] section. *)
  | F_timeout of int  (** Deadline in transitions. *)
  | F_retry of thunk * int * int
      (** [(action, attempts_left, next_backoff)]. *)
  | F_rethrow of Exn.t
      (** Continue unwinding with this exception once the cleanup above
          finishes normally; a cleanup that itself raises wins. *)
  | F_restore of thunk
      (** Continue popping with this saved value once the cleanup above
          finishes (the cleanup's own result is discarded). *)
  | F_catch
      (** [getException] on an IO action (GHC's [try]): the action runs
          above this frame; a normal result pops as [OK v], an unwinding
          exception is stopped here and pops as [Bad e]. *)

let run ?(config = Denot.default_config) ?(oracle = Oracle.first ())
    ?(trace = Obs.create ()) ?(input = "") ?(async = [])
    ?(max_steps = 100_000) (e : expr) =
  let tr = trace in
  let st =
    {
      oracle;
      input = List.init (String.length input) (String.get input);
      async;
      steps = 0;
      max_steps;
      trace_rev = [];
    }
  in
  let counters = fresh_counters () in
  (* Ask the oracle for a member of [s], recording both the chosen member
     and the members that were *not* chosen — the imprecision the
     operational layer hides. *)
  let pick s =
    let x = Oracle.pick_exception st.oracle s in
    if Obs.on tr then begin
      let unchosen =
        match Exn_set.elements s with
        | None -> []
        | Some es -> List.filter (fun e -> e <> x) es
      in
      Obs.record tr (Obs.Ev_oracle_pick (x, unchosen))
    end;
    x
  in
  (* Bounded channels in a single-threaded driver: a buffered operation
     proceeds immediately, while a blocking one is hopeless — nobody else
     can ever fill or drain the buffer — so it receives the catchable
     [Blocked_indefinitely] at once, matching {!Conc}'s quiescence
     behaviour on the same term (channel blocking is interruptible even
     under a mask, so delivery here ignores the mask too). *)
  let chans : (int, chan) Hashtbl.t = Hashtbl.create 8 in
  let next_chan = ref 0 in
  let as_chan_id (w : whnf) : (int, string) Result.t =
    match w with
    | Ok_v (VCon (c, [ idt ])) when String.equal c "ChanRef" -> (
        match force idt with
        | Ok_v (VInt id) -> Result.Ok id
        | _ -> Result.Error "corrupt channel reference")
    | _ -> Result.Error "not a channel"
  in
  let mask = ref 0 in
  let enter_mask () =
    incr mask;
    counters.masked_sections <- counters.masked_sections + 1;
    if Obs.on tr then Obs.record tr Obs.Ev_mask_push
  in
  let leave_mask () =
    mask := max 0 (!mask - 1);
    if Obs.on tr then Obs.record tr Obs.Ev_mask_pop
  in
  let fuel_handle = Denot.handle config in
  let main_thunk =
    delay (fun () -> Denot.eval_in fuel_handle Denot.empty_env e)
  in
  let return_thunk w = from_whnf (Ok_v (VCon (c_return, [ from_whnf w ]))) in
  (* Lazy application for release/use functions: an ill-typed "function"
     surfaces as an exceptional IO value, which then unwinds normally. *)
  let apply f_thunk arg =
    delay (fun () ->
        match force f_thunk with
        | Ok_v (VFun f) -> f arg
        | Ok_v _ ->
            Bad (Exn_set.singleton (Exn.Type_error "application of a non-function"))
        | Bad s -> Bad s)
  in
  let expired stack =
    !mask = 0
    && List.exists
         (function F_timeout d -> d <= st.steps | _ -> false)
         stack
  in
  let rec perform (m : thunk) (stack : frame list) : outcome =
    if st.steps >= st.max_steps then Io_diverged
    else begin
      st.steps <- st.steps + 1;
      (* Each transition gets a fresh approximation budget (a transition
         that hits bottom must not starve the rest of the program). *)
      Denot.refill fuel_handle;
      if expired stack then begin
        counters.timeouts_fired <- counters.timeouts_fired + 1;
        if Obs.on tr then Obs.record tr (Obs.Ev_io "timeout fired");
        unwind Exn.Timeout stack
      end
      else
        match force m with
        | Bad s -> (
            (* The IO structure itself is exceptional: unwind (running any
               pending releases), then report uncaught. *)
            if Oracle.diverge_on_non_termination st.oracle s then Io_diverged
            else
              match Exn_set.choose s with
              | None -> Stuck "exceptional IO value with empty set"
              | Some _ -> unwind (pick s) stack)
        | Ok_v (VCon (c, [ t ])) when String.equal c c_return -> pop t stack
        | Ok_v (VCon (c, [ m1; k ])) when String.equal c c_bind ->
            perform m1 (F_k k :: stack)
        | Ok_v (VCon (c, [])) when String.equal c c_get_char -> (
            match st.input with
            | [] -> Stuck "getChar: end of input"
            | ch :: rest ->
                st.input <- rest;
                emit st (E_read ch);
                perform (return_thunk (Ok_v (VChar ch))) stack)
        | Ok_v (VCon (c, [ t ])) when String.equal c c_put_char -> (
            match force t with
            | Ok_v (VChar ch) ->
                emit st (E_write ch);
                perform (return_thunk (vcon0 c_unit)) stack
            | Ok_v _ -> Stuck "putChar: not a character"
            | Bad s -> unwind (pick s) stack)
        | Ok_v (VCon (c, [ t ])) when String.equal c c_get_exception -> (
            match if !mask = 0 then pending_async st else None with
            | Some x ->
                (* getException v —¡x→ return (Bad x): v may be discarded
                   even if normal (Section 5.1). *)
                counters.async_delivered <- counters.async_delivered + 1;
                if Obs.on tr then begin
                  Obs.record tr (Obs.Ev_async x);
                  Obs.record tr (Obs.Ev_catch (Some x))
                end;
                emit st (E_async x);
                perform
                  (return_thunk
                     (Ok_v (VCon (c_bad, [ from_whnf (exn_to_value x) ]))))
                  stack
            | None -> (
                match force t with
                | Ok_v (VCon (cn, _) as v) when is_io_action_constructor cn ->
                    (* getException on an IO action: perform it under a
                       catch frame (GHC's [try]) so an exception raised
                       anywhere in the action — including one delivered
                       while it is blocked, in the concurrent layers —
                       pops here as [Bad]. *)
                    perform (from_whnf (Ok_v v)) (F_catch :: stack)
                | Ok_v v ->
                    if Obs.on tr then Obs.record tr (Obs.Ev_catch None);
                    perform
                      (return_thunk
                         (Ok_v (VCon (c_ok, [ from_whnf (Ok_v v) ]))))
                      stack
                | Bad s ->
                    if Oracle.diverge_on_non_termination st.oracle s then
                      Io_diverged
                    else if Exn_set.is_empty s then
                      Stuck "getException: empty exception set"
                    else
                      let x = pick s in
                      if Obs.on tr then Obs.record tr (Obs.Ev_catch (Some x));
                      perform
                        (return_thunk
                           (Ok_v
                              (VCon (c_bad, [ from_whnf (exn_to_value x) ]))))
                        stack))
        | Ok_v (VCon (c, [ t ])) when String.equal c c_evaluate -> (
            (* evaluate e: the precise forcing point. The argument is
               forced to WHNF *as this action is performed*, so its
               imprecise exception set collapses to a member at exactly
               this point in the IO sequence — unlike [return e], whose
               payload stays lazy, and observably unlike the pure value
               [Evaluate e] (an OK constructor even when e is Bad; see
               the evaluate_is_seq_return law). *)
            match force t with
            | Ok_v v -> perform (return_thunk (Ok_v v)) stack
            | Bad s ->
                if Oracle.diverge_on_non_termination st.oracle s then
                  Io_diverged
                else if Exn_set.is_empty s then
                  Stuck "evaluate: empty exception set"
                else unwind (pick s) stack)
        | Ok_v (VCon (c, [ acq; rel; use ])) when String.equal c c_bracket ->
            (* The acquire phase runs masked, so an async event cannot slip
               in between acquire completing and the release being
               registered. *)
            enter_mask ();
            perform acq (F_bracket (rel, use) :: stack)
        | Ok_v (VCon (c, [ m1; h ])) when String.equal c c_on_exception ->
            perform m1 (F_onexn h :: stack)
        | Ok_v (VCon (c, [ m1 ])) when String.equal c c_mask ->
            enter_mask ();
            perform m1 (F_mask_pop :: stack)
        | Ok_v (VCon (c, [ m1 ])) when String.equal c c_unmask ->
            leave_mask ();
            perform m1 (F_unmask_pop :: stack)
        | Ok_v (VCon (c, [ n; m1 ])) when String.equal c c_timeout -> (
            match force n with
            | Ok_v (VInt k) ->
                perform m1 (F_timeout (st.steps + max 0 k) :: stack)
            | Ok_v _ -> Stuck "timeout: budget is not an integer"
            | Bad s -> unwind (pick s) stack)
        | Ok_v (VCon (c, [ n; b; m1 ])) when String.equal c c_retry -> (
            match (force n, force b) with
            | Ok_v (VInt attempts), Ok_v (VInt backoff) ->
                perform m1
                  (F_retry (m1, max 0 attempts, max 1 backoff) :: stack)
            | Bad s, _ | _, Bad s -> unwind (pick s) stack
            | _ -> Stuck "retry: attempts/backoff are not integers")
        | Ok_v (VCon (c, [])) when String.equal c "MyThreadId" ->
            (* The single-threaded layer is its own main thread 0. *)
            perform
              (return_thunk
                 (Ok_v
                    (VCon ("ThreadId", [ from_whnf (Ok_v (VInt 0)) ]))))
              stack
        | Ok_v (VCon (c, [ tt; et ])) when String.equal c "ThrowTo" -> (
            match force tt with
            | Ok_v (VCon (ct, [ nt ])) when String.equal ct "ThreadId" -> (
                match force nt with
                | Ok_v (VInt tid) -> (
                    match exn_of_whnf (force et) with
                    | Ok x ->
                        if tid = 0 then begin
                          (* throwTo to oneself is synchronous (GHC):
                             deliver regardless of masking. *)
                          counters.throwtos_delivered <-
                            counters.throwtos_delivered + 1;
                          if Obs.on tr then begin
                            Obs.record tr (Obs.Ev_throwto (0, 0, x));
                            Obs.record tr (Obs.Ev_kill_delivered (0, x))
                          end;
                          unwind x stack
                        end
                        else
                          (* No such thread here: a send to a dead or
                             unknown ThreadId is a no-op. *)
                          perform (return_thunk (vcon0 c_unit)) stack
                    | Error (Bad s) -> unwind (pick s) stack
                    | Error _ ->
                        unwind
                          (Exn.Type_error "throwTo: not an exception")
                          stack)
                | Ok_v _ ->
                    unwind (Exn.Type_error "throwTo: not a ThreadId") stack
                | Bad s -> unwind (pick s) stack)
            | Ok_v _ ->
                unwind (Exn.Type_error "throwTo: not a ThreadId") stack
            | Bad s -> unwind (pick s) stack)
        | Ok_v (VCon (c, [ n ])) when String.equal c "NewChan" -> (
            match force n with
            | Ok_v (VInt k) ->
                let id = !next_chan in
                incr next_chan;
                Hashtbl.replace chans id
                  { cap = max 1 k; buf = Queue.create () };
                perform
                  (return_thunk
                     (Ok_v (VCon ("ChanRef", [ from_whnf (Ok_v (VInt id)) ]))))
                  stack
            | Ok_v _ -> Stuck "newChan: capacity is not an integer"
            | Bad s -> unwind (pick s) stack)
        | Ok_v (VCon (c, [ r ])) when String.equal c "ReadChan" -> (
            match as_chan_id (force r) with
            | Result.Error msg -> unwind (Exn.Type_error msg) stack
            | Result.Ok id ->
                let ch = Hashtbl.find chans id in
                if Queue.is_empty ch.buf then blocked_forever stack
                else perform (return_thunk (force (Queue.pop ch.buf))) stack)
        | Ok_v (VCon (c, [ r; v ])) when String.equal c "WriteChan" -> (
            match as_chan_id (force r) with
            | Result.Error msg -> unwind (Exn.Type_error msg) stack
            | Result.Ok id ->
                let ch = Hashtbl.find chans id in
                if Queue.length ch.buf >= ch.cap then blocked_forever stack
                else begin
                  Queue.push v ch.buf;
                  perform (return_thunk (vcon0 c_unit)) stack
                end)
        | Ok_v _ -> Stuck "not an IO value"
    end
  (* A channel operation that would block can never be woken here. *)
  and blocked_forever (stack : frame list) : outcome =
    counters.blocked_recoveries <- counters.blocked_recoveries + 1;
    if Obs.on tr then Obs.record tr (Obs.Ev_blocked_recover 0);
    emit st (E_async Exn.Blocked_indefinitely);
    unwind Exn.Blocked_indefinitely stack
  (* Normal return: pop administrative frames until the next [>>=]
     continuation (or the bottom of the stack). *)
  and pop (v : thunk) (stack : frame list) : outcome =
    match stack with
    | [] ->
        (* The final deep force is its own transition: it must not run on
           whatever fuel the last action left over. *)
        Denot.refill fuel_handle;
        Done (deep_force ~depth:64 v)
    | F_k k :: rest -> (
        (* Looking up the next continuation starts a new transition.
           Without the refill, an action whose forcing exhausted the
           budget (so it collapsed to [Bad All]) would poison the force
           of [k] too — and an exception an enclosing [F_catch] just
           caught would spuriously escape as uncaught. *)
        Denot.refill fuel_handle;
        match force k with
        | Ok_v (VFun f) -> perform (delay (fun () -> f v)) rest
        | Ok_v _ -> Stuck ">>=: continuation is not a function"
        | Bad s -> unwind (pick s) rest)
    | F_bracket (rel, use) :: rest ->
        (* Acquire finished: the release is now registered; unmask and run
           the use phase under its protection. *)
        counters.brackets_entered <- counters.brackets_entered + 1;
        if Obs.on tr then Obs.record tr Obs.Ev_acquire;
        leave_mask ();
        perform (apply use v) (F_release (apply rel v) :: rest)
    | F_release r :: rest ->
        counters.brackets_released <- counters.brackets_released + 1;
        if Obs.on tr then Obs.record tr Obs.Ev_release;
        enter_mask ();
        perform r (F_mask_pop :: F_restore v :: rest)
    | F_onexn _ :: rest -> pop v rest
    | F_mask_pop :: rest ->
        leave_mask ();
        pop v rest
    | F_unmask_pop :: rest ->
        incr mask;
        pop v rest
    | F_timeout _ :: rest ->
        pop (from_whnf (Ok_v (VCon (c_just, [ v ])))) rest
    | F_retry _ :: rest -> pop v rest
    | F_rethrow e :: rest -> unwind e rest
    | F_restore saved :: rest -> pop saved rest
    | F_catch :: rest ->
        if Obs.on tr then Obs.record tr (Obs.Ev_catch None);
        pop (from_whnf (Ok_v (VCon (c_ok, [ v ])))) rest
  (* Exceptional return: trim the stack, running releases and handlers. *)
  and unwind (e : Exn.t) (stack : frame list) : outcome =
    match stack with
    | [] -> Uncaught e
    | F_k _ :: rest -> unwind e rest
    | F_bracket _ :: rest ->
        (* The acquire itself failed: nothing was acquired, nothing to
           release. *)
        leave_mask ();
        unwind e rest
    | F_release r :: rest ->
        counters.brackets_released <- counters.brackets_released + 1;
        if Obs.on tr then Obs.record tr Obs.Ev_release;
        enter_mask ();
        perform r (F_mask_pop :: F_rethrow e :: rest)
    | F_onexn h :: rest ->
        enter_mask ();
        perform h (F_mask_pop :: F_rethrow e :: rest)
    | F_mask_pop :: rest ->
        leave_mask ();
        unwind e rest
    | F_unmask_pop :: rest ->
        incr mask;
        unwind e rest
    | F_timeout _ :: rest when e = Exn.Timeout ->
        pop (from_whnf (Ok_v (VCon (c_nothing, [])))) rest
    | F_timeout _ :: rest -> unwind e rest
    | F_retry (action, attempts, backoff) :: rest ->
        if attempts > 0 then begin
          counters.retries <- counters.retries + 1;
          (* Deterministic backoff: advance the transition clock, so the
             wait interacts reproducibly with timeouts and the async
             schedule. *)
          st.steps <- st.steps + backoff;
          perform action (F_retry (action, attempts - 1, 2 * backoff) :: rest)
        end
        else unwind e rest
    | F_rethrow _ :: rest ->
        (* A cleanup raised while unwinding: the newer exception wins. *)
        unwind e rest
    | F_restore _ :: rest -> unwind e rest
    | F_catch :: rest ->
        if Obs.on tr then Obs.record tr (Obs.Ev_catch (Some e));
        pop (from_whnf (Ok_v (VCon (c_bad, [ from_whnf (exn_to_value e) ]))))
          rest
  in
  let outcome = perform main_thunk [] in
  { trace = List.rev st.trace_rev; outcome; counters }

let output_string_of r =
  let buf = Buffer.create 16 in
  List.iter
    (function E_write c -> Buffer.add_char buf c | E_read _ | E_async _ -> ())
    r.trace;
  Buffer.contents buf
