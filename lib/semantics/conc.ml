open Lang.Syntax
open Sem_value
module Exn = Lang.Exn
module Fifo = Sched.Fifo
module Bitq = Sched.Bitq
module Heap = Sched.Heap

type event =
  | E_write of int * char
  | E_read of int * char
  | E_fork of int * int
  | E_block of int
  | E_wake of int
  | E_thread_done of int
  | E_thread_died of int * Exn.t
  | E_async of int * Exn.t
  | E_sleep of int * int
  | E_throwto of int * int * Exn.t

type outcome =
  | Done of deep
  | Uncaught of Exn.t
  | Deadlock
  | Diverged
  | Stuck of string

type result = {
  trace : event list;
  outcome : outcome;
  threads_spawned : int;
  context_switches : int;
  counters : Iosem.counters;
}

let pp_event ppf = function
  | E_write (t, c) -> Fmt.pf ppf "t%d!%C" t c
  | E_read (t, c) -> Fmt.pf ppf "t%d?%C" t c
  | E_fork (p, c) -> Fmt.pf ppf "t%d forks t%d" p c
  | E_block t -> Fmt.pf ppf "t%d blocks" t
  | E_wake t -> Fmt.pf ppf "t%d wakes" t
  | E_thread_done t -> Fmt.pf ppf "t%d done" t
  | E_thread_died (t, e) -> Fmt.pf ppf "t%d died: %a" t Exn.pp e
  | E_async (t, e) -> Fmt.pf ppf "t%d async %a" t Exn.pp e
  | E_sleep (t, until) -> Fmt.pf ppf "t%d sleeps until %d" t until
  | E_throwto (s, d, e) -> Fmt.pf ppf "t%d throws %a to t%d" s Exn.pp e d

let pp_outcome ppf = function
  | Done d -> Fmt.pf ppf "Done %a" pp_deep d
  | Uncaught e -> Fmt.pf ppf "Uncaught %a" Exn.pp e
  | Deadlock -> Fmt.string ppf "Deadlock"
  | Diverged -> Fmt.string ppf "Diverged"
  | Stuck msg -> Fmt.pf ppf "Stuck %S" msg

(* Thread, MVar and channel bookkeeping. *)

(* Same IO continuation frames as {!Iosem}, one stack per thread. *)
type frame =
  | F_k of thunk
  | F_bracket of thunk * thunk
  | F_release of thunk
  | F_onexn of thunk
  | F_mask_pop
  | F_unmask_pop
  | F_timeout of int
  | F_retry of thunk * int * int
  | F_rethrow of Exn.t
  | F_restore of thunk
  | F_catch
      (** [getException] on an IO action (GHC's [try]): a normal result
          pops as [OK v], an unwinding exception — including one
          delivered while the thread is blocked — stops here as [Bad]. *)

type thread_state =
  | Runnable of thunk * frame list  (** IO value, continuation frames *)
  | Blocked_take of int * frame list
  | Blocked_put of int * thunk * frame list
      (** mvar, value to deposit, frames *)
  | Blocked_read of int * frame list  (** channel, frames *)
  | Blocked_write of int * thunk * frame list
      (** channel, value to deposit, frames *)
  | Sleeping of int * thunk * frame list
      (** Wake at the given clock tick and re-perform the action
          ([Retry]'s deterministic backoff). *)
  | Finished

type thread = {
  tid : int;
  mutable state : thread_state;
  mutable mask : int;
  mutable pending_exns : Exn.t list;
      (** Thread-targeted asynchronous exceptions ([throwTo], kill
          schedules), FIFO, delivered only while [mask = 0] (channel
          blocking is interruptible regardless of mask). *)
  mutable stamp : int;
      (** Round in which the thread last became runnable. A thread woken
          or forked mid-round carries the current round's stamp and is
          skipped by the stepping cursor — reproducing the seed
          scheduler's runnable-snapshot-per-round semantics without
          building the snapshot. *)
  mutable blocked_on : (int Fifo.t * int Fifo.node) option;
      (** The blocked-on edge: the waiter queue this thread sits in and
          its node there. Maintained incrementally, so exceptional
          wakeups detach in O(1) instead of scanning every cell. *)
}

type mvar = {
  mutable contents : thunk option;
  take_waiters : int Fifo.t;
  put_waiters : int Fifo.t;
}

(* A bounded channel: a FIFO buffer of at most [cap] elements, plus
   waiter queues for readers of an empty buffer and writers of a full
   one. Invariants (checked under the debug flag): readers wait only
   while the buffer is empty, writers only while it is full, so a wake
   never cascades. A blocked writer's element lives in its thread state,
   not the buffer, until the deposit actually happens — killing a
   blocked writer can therefore never lose a buffered element. *)
type chan = {
  cap : int;
  buf : thunk Queue.t;
  readers : int Fifo.t;
  writers : int Fifo.t;
}

let mvar_con = "MVarRef"
let chan_con = "ChanRef"

let debug_default () = Sys.getenv_opt "IMPEXN_SCHED_DEBUG" <> None

let run ?(config = Denot.default_config) ?(oracle = Oracle.first ())
    ?(trace = Obs.create ()) ?(input = "") ?(async = []) ?(kills = [])
    ?(check_invariants = debug_default ()) ?(max_steps = 200_000) (e : expr)
    =
  let tr = trace in
  let trace_rev = ref [] in
  let emit ev = trace_rev := ev :: !trace_rev in
  let threads : (int, thread) Hashtbl.t = Hashtbl.create 64 in
  let next_tid = ref 0 in
  let spawned = ref 0 in
  let switches = ref 0 in
  let clock = ref 0 in
  let round = ref 0 in
  let pending = ref async in
  let counters = Iosem.fresh_counters () in
  let mvars : (int, mvar) Hashtbl.t = Hashtbl.create 8 in
  let next_mvar = ref 0 in
  let chans : (int, chan) Hashtbl.t = Hashtbl.create 8 in
  let next_chan = ref 0 in
  let input_pos = ref 0 in
  let main_result : outcome option ref = ref None in

  (* The scheduler indices. [runq] holds exactly the Runnable tids,
     [blockedq] exactly the Blocked_* tids, [signaled] the blocked or
     sleeping tids that may have a deliverable pending exception;
     sleepers sit in a (wake_at, tid) min-heap with lazy deletion. *)
  let runq = Bitq.create () in
  let blockedq = Bitq.create () in
  let signaled = Bitq.create () in
  let sleep_heap = Heap.create () in
  let n_sleeping = ref 0 in

  let find_thread tid = Hashtbl.find threads tid in
  let find_thread_opt tid = Hashtbl.find_opt threads tid in

  (* Every state change goes through here so the indices stay exact:
     leaving a state retires its index entry (including the blocked-on
     edge — this is the O(1) replacement for scrubbing every MVar), and
     entering one installs it. *)
  let set_state (t : thread) (st : thread_state) =
    (match t.state with
    | Runnable _ -> Bitq.remove runq t.tid
    | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _ ->
        Bitq.remove blockedq t.tid;
        (match t.blocked_on with
        | Some (q, n) -> Fifo.remove q n
        | None -> ());
        t.blocked_on <- None
    | Sleeping _ -> decr n_sleeping
    | Finished -> ());
    t.state <- st;
    match st with
    | Runnable _ ->
        Bitq.add runq t.tid;
        t.stamp <- !round
    | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _ ->
        Bitq.add blockedq t.tid;
        if t.pending_exns <> [] then Bitq.add signaled t.tid
    | Sleeping (until, _, _) ->
        incr n_sleeping;
        Heap.push sleep_heap until t.tid;
        if t.pending_exns <> [] then Bitq.add signaled t.tid
    | Finished -> ()
  in

  let kills = ref kills in
  let new_thread m_thunk frames =
    let tid = !next_tid in
    incr next_tid;
    incr spawned;
    let t =
      {
        tid;
        state = Finished;
        mask = 0;
        pending_exns = [];
        stamp = 0;
        blocked_on = None;
      }
    in
    Hashtbl.replace threads tid t;
    set_state t (Runnable (m_thunk, frames));
    t
  in

  let fuel_handle = Denot.handle config in
  let main_thread =
    new_thread
      (delay (fun () -> Denot.eval_in fuel_handle Denot.empty_env e))
      []
  in

  let return_thunk w = from_whnf (Ok_v (VCon (c_return, [ from_whnf w ]))) in

  let apply f_thunk arg =
    delay (fun () ->
        match force f_thunk with
        | Ok_v (VFun f) -> f arg
        | Ok_v _ ->
            Bad (Exn_set.singleton (Exn.Type_error "application of a non-function"))
        | Bad s -> Bad s)
  in

  (* See {!Iosem}: the oracle pick, recorded with the un-chosen rest. *)
  let pick s =
    let x = Oracle.pick_exception oracle s in
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
  let enter_mask t =
    t.mask <- t.mask + 1;
    counters.masked_sections <- counters.masked_sections + 1;
    if Obs.on tr then Obs.record tr Obs.Ev_mask_push
  in
  let leave_mask t =
    t.mask <- max 0 (t.mask - 1);
    if Obs.on tr then Obs.record tr Obs.Ev_mask_pop
  in

  let pending_async (t : thread) =
    if t.mask > 0 then None
    else
      match !pending with
      | (k, x) :: rest when !clock >= k ->
          pending := rest;
          Some x
      | _ -> None
  in

  let finish (t : thread) (value : thunk) =
    emit (E_thread_done t.tid);
    if t.tid = main_thread.tid then begin
      (* Fresh budget for the final deep force; see Iosem.pop. *)
      Denot.refill fuel_handle;
      main_result := Some (Done (deep_force ~depth:64 value))
    end;
    set_state t Finished
  in

  let die (t : thread) (exn : Exn.t) =
    if t.tid = main_thread.tid then main_result := Some (Uncaught exn)
    else emit (E_thread_died (t.tid, exn));
    set_state t Finished
  in

  (* Normal return [v] through thread [t]'s frames; installs the next
     runnable action (or finishes the thread). *)
  let rec pop_t (t : thread) (v : thunk) (stack : frame list) : unit =
    match stack with
    | [] -> finish t v
    | F_k k :: rest -> (
        (* Fresh budget: the previous action may have exhausted the
           fuel, and forcing [k] on the leftovers would collapse a
           healthy continuation to [Bad All]; see Iosem.pop. *)
        Denot.refill fuel_handle;
        match force k with
        | Ok_v (VFun f) ->
            set_state t (Runnable (delay (fun () -> f v), rest))
        | Ok_v _ -> main_result := Some (Stuck ">>=: not a function")
        | Bad s -> unwind_t t (pick s) rest)
    | F_bracket (rel, use) :: rest ->
        counters.brackets_entered <- counters.brackets_entered + 1;
        if Obs.on tr then Obs.record tr Obs.Ev_acquire;
        leave_mask t;
        set_state t (Runnable (apply use v, F_release (apply rel v) :: rest))
    | F_release r :: rest ->
        counters.brackets_released <- counters.brackets_released + 1;
        if Obs.on tr then Obs.record tr Obs.Ev_release;
        enter_mask t;
        set_state t (Runnable (r, F_mask_pop :: F_restore v :: rest))
    | F_onexn _ :: rest -> pop_t t v rest
    | F_mask_pop :: rest ->
        leave_mask t;
        pop_t t v rest
    | F_unmask_pop :: rest ->
        t.mask <- t.mask + 1;
        pop_t t v rest
    | F_timeout _ :: rest ->
        pop_t t (from_whnf (Ok_v (VCon (c_just, [ v ])))) rest
    | F_retry _ :: rest -> pop_t t v rest
    | F_rethrow e :: rest -> unwind_t t e rest
    | F_restore saved :: rest -> pop_t t saved rest
    | F_catch :: rest ->
        if Obs.on tr then Obs.record tr (Obs.Ev_catch None);
        pop_t t (from_whnf (Ok_v (VCon (c_ok, [ v ])))) rest

  (* Exceptional return through [t]'s frames: run releases and handlers,
     or kill the thread at the bottom. *)
  and unwind_t (t : thread) (e : Exn.t) (stack : frame list) : unit =
    match stack with
    | [] -> die t e
    | F_k _ :: rest -> unwind_t t e rest
    | F_bracket _ :: rest ->
        leave_mask t;
        unwind_t t e rest
    | F_release r :: rest ->
        counters.brackets_released <- counters.brackets_released + 1;
        if Obs.on tr then Obs.record tr Obs.Ev_release;
        enter_mask t;
        set_state t (Runnable (r, F_mask_pop :: F_rethrow e :: rest))
    | F_onexn h :: rest ->
        enter_mask t;
        set_state t (Runnable (h, F_mask_pop :: F_rethrow e :: rest))
    | F_mask_pop :: rest ->
        leave_mask t;
        unwind_t t e rest
    | F_unmask_pop :: rest ->
        t.mask <- t.mask + 1;
        unwind_t t e rest
    | F_timeout _ :: rest when e = Exn.Timeout ->
        pop_t t (from_whnf (Ok_v (VCon (c_nothing, [])))) rest
    | F_timeout _ :: rest -> unwind_t t e rest
    | F_retry (action, attempts, backoff) :: rest ->
        if attempts > 0 then begin
          counters.retries <- counters.retries + 1;
          let until = !clock + backoff in
          emit (E_sleep (t.tid, until));
          set_state t
            (Sleeping
               ( until,
                 action,
                 F_retry (action, attempts - 1, 2 * backoff) :: rest ))
        end
        else unwind_t t e rest
    | F_rethrow _ :: rest -> unwind_t t e rest
    | F_restore _ :: rest -> unwind_t t e rest
    | F_catch :: rest ->
        if Obs.on tr then Obs.record tr (Obs.Ev_catch (Some e));
        pop_t t
          (from_whnf (Ok_v (VCon (c_bad, [ from_whnf (exn_to_value e) ]))))
          rest
  in

  (* A normal (value-carrying) wake of an MVar waiter: the caller has
     already popped [tid] from the waiter queue. *)
  let wake tid =
    let t = find_thread tid in
    match t.state with
    | Blocked_take (mv, frames) -> (
        let m = Hashtbl.find mvars mv in
        match m.contents with
        | Some v ->
            m.contents <- None;
            emit (E_wake tid);
            set_state t (Runnable (return_thunk (force v), frames))
        | None -> () (* someone else won the race; stay blocked *))
    | Blocked_put (mv, v, frames) -> (
        let m = Hashtbl.find mvars mv in
        match m.contents with
        | None ->
            m.contents <- Some v;
            emit (E_wake tid);
            set_state t
              (Runnable (return_thunk (Ok_v (VCon (c_unit, []))), frames))
        | Some _ -> ())
    | Runnable _ | Blocked_read _ | Blocked_write _ | Sleeping _ | Finished
      ->
        ()
  in

  (* Channel wakes. The channel invariants (readers wait only on empty,
     writers only on full) guarantee the precondition of each: when a
     writer wakes a reader it has just pushed, so the buffer is
     non-empty; when a reader wakes a writer it has just popped, so
     there is room. Neither wake can strand a further waiter. *)
  let wake_reader tid =
    let t = find_thread tid in
    match t.state with
    | Blocked_read (id, frames) ->
        let c = Hashtbl.find chans id in
        let v = Queue.pop c.buf in
        emit (E_wake tid);
        set_state t (Runnable (return_thunk (force v), frames))
    | _ -> ()
  in
  let wake_writer tid =
    let t = find_thread tid in
    match t.state with
    | Blocked_write (id, v, frames) ->
        let c = Hashtbl.find chans id in
        Queue.push v c.buf;
        emit (E_wake tid);
        set_state t
          (Runnable (return_thunk (Ok_v (VCon (c_unit, []))), frames))
    | _ -> ()
  in

  let take_pending_exn (t : thread) =
    if t.mask > 0 then None
    else
      match t.pending_exns with
      | [] -> None
      | x :: rest ->
          t.pending_exns <- rest;
          Some x
  in

  (* Channel blocking is an interruptible point in the PLDI'01 sense:
     delivery there ignores the mask (unlike MVar blocking, which keeps
     this runtime's strict masked-block discipline). *)
  let take_pending_exn_interruptible (t : thread) =
    match t.pending_exns with
    | [] -> None
    | x :: rest ->
        t.pending_exns <- rest;
        Some x
  in

  (* Thread-targeted delivery by unwinding [t]'s frames: releases and
     handlers run, an [F_catch] (getException-on-IO) stops it. The
     blocked-on edge is detached by [set_state] when the unwind leaves
     the blocked state. *)
  let deliver_unwind (t : thread) (x : Exn.t) (frames : frame list) =
    counters.throwtos_delivered <- counters.throwtos_delivered + 1;
    if Obs.on tr then Obs.record tr (Obs.Ev_kill_delivered (t.tid, x));
    emit (E_async (t.tid, x));
    unwind_t t x frames
  in

  (* Queue a thread-targeted exception ([throwTo], kill schedules) and
     flag the target for round-start delivery if it cannot reach a
     delivery point on its own. *)
  let enqueue_pending (target : int) (x : Exn.t) =
    match find_thread_opt target with
    | None -> () (* unknown target: no-op *)
    | Some tgt -> (
        match tgt.state with
        | Finished -> () (* dead target: send is a no-op *)
        | Runnable _ -> tgt.pending_exns <- tgt.pending_exns @ [ x ]
        | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _
        | Sleeping _ ->
            tgt.pending_exns <- tgt.pending_exns @ [ x ];
            Bitq.add signaled tgt.tid)
  in

  let as_mvar_id (w : whnf) : (int, string) Result.t =
    match w with
    | Ok_v (VCon (c, [ idt ])) when String.equal c mvar_con -> (
        match force idt with
        | Ok_v (VInt id) -> Result.Ok id
        | _ -> Result.Error "corrupt MVar reference")
    | _ -> Result.Error "not an MVar"
  in

  let as_chan_id (w : whnf) : (int, string) Result.t =
    match w with
    | Ok_v (VCon (c, [ idt ])) when String.equal c chan_con -> (
        match force idt with
        | Ok_v (VInt id) -> Result.Ok id
        | _ -> Result.Error "corrupt channel reference")
    | _ -> Result.Error "not a channel"
  in

  let expired (t : thread) stack =
    t.mask = 0
    && List.exists (function F_timeout d -> d <= !clock | _ -> false) stack
  in

  (* One transition for one thread. Returns [true] if it made progress. *)
  let step (t : thread) : bool =
    match t.state with
    | Finished | Blocked_take _ | Blocked_put _ | Blocked_read _
    | Blocked_write _ | Sleeping _ ->
        false
    | Runnable (m_thunk, frames) -> (
        incr switches;
        incr clock;
        (* Fresh per-transition budget; see Iosem. *)
        Denot.refill fuel_handle;
        match take_pending_exn t with
        | Some x ->
            (* A thread-targeted exception is due (thread is unmasked).
               If the interrupted action is a [getException] it is caught
               right here — §5.1 delivery at getException; otherwise
               unwind the thread's frames (releases and handlers run). *)
            (match force m_thunk with
            | Ok_v (VCon (c, [ _ ])) when String.equal c c_get_exception ->
                counters.throwtos_delivered <-
                  counters.throwtos_delivered + 1;
                if Obs.on tr then begin
                  Obs.record tr (Obs.Ev_kill_delivered (t.tid, x));
                  Obs.record tr (Obs.Ev_catch (Some x))
                end;
                emit (E_async (t.tid, x));
                set_state t
                  (Runnable
                     ( return_thunk
                         (Ok_v (VCon (c_bad, [ from_whnf (exn_to_value x) ]))),
                       frames ))
            | _ -> deliver_unwind t x frames);
            true
        | None -> (
            if expired t frames then begin
              counters.timeouts_fired <- counters.timeouts_fired + 1;
              if Obs.on tr then Obs.record tr (Obs.Ev_io "timeout fired");
              unwind_t t Exn.Timeout frames;
              true
            end
            else
              match force m_thunk with
          | Bad s ->
              if Oracle.diverge_on_non_termination oracle s then begin
                main_result := Some Diverged;
                true
              end
              else begin
                unwind_t t (pick s) frames;
                true
              end
          | Ok_v (VCon (c, [ v ])) when String.equal c c_return ->
              pop_t t v frames;
              true
          | Ok_v (VCon (c, [ m1; k ])) when String.equal c c_bind ->
              set_state t (Runnable (m1, F_k k :: frames));
              true
          | Ok_v (VCon (c, [])) when String.equal c c_get_char ->
              if !input_pos >= String.length input then begin
                main_result := Some (Stuck "getChar: end of input");
                true
              end
              else begin
                let ch = input.[!input_pos] in
                incr input_pos;
                emit (E_read (t.tid, ch));
                set_state t
                  (Runnable (return_thunk (Ok_v (VChar ch)), frames));
                true
              end
          | Ok_v (VCon (c, [ v ])) when String.equal c c_put_char -> (
              match force v with
              | Ok_v (VChar ch) ->
                  emit (E_write (t.tid, ch));
                  set_state t
                    (Runnable
                       (return_thunk (Ok_v (VCon (c_unit, []))), frames));
                  true
              | Ok_v _ ->
                  main_result := Some (Stuck "putChar: not a character");
                  true
              | Bad s ->
                  unwind_t t (pick s) frames;
                  true)
          | Ok_v (VCon (c, [ v ])) when String.equal c c_get_exception -> (
              match pending_async t with
              | Some x ->
                  counters.async_delivered <- counters.async_delivered + 1;
                  if Obs.on tr then begin
                    Obs.record tr (Obs.Ev_async x);
                    Obs.record tr (Obs.Ev_catch (Some x))
                  end;
                  emit (E_async (t.tid, x));
                  set_state t
                    (Runnable
                       ( return_thunk
                           (Ok_v
                              (VCon (c_bad, [ from_whnf (exn_to_value x) ]))),
                         frames ));
                  true
              | None -> (
                  match force v with
                  | Ok_v (VCon (cn, _)) as w when is_io_action_constructor cn
                    ->
                      (* getException of an IO action (GHC's [try]):
                         perform it under a catch frame so exceptions it
                         raises — or that are delivered to this thread
                         while it blocks — come back as [Bad]. *)
                      set_state t (Runnable (from_whnf w, F_catch :: frames));
                      true
                  | Ok_v value ->
                      if Obs.on tr then Obs.record tr (Obs.Ev_catch None);
                      set_state t
                        (Runnable
                           ( return_thunk
                               (Ok_v (VCon (c_ok, [ from_whnf (Ok_v value) ]))),
                             frames ));
                      true
                  | Bad s ->
                      let x = pick s in
                      if Obs.on tr then Obs.record tr (Obs.Ev_catch (Some x));
                      set_state t
                        (Runnable
                           ( return_thunk
                               (Ok_v
                                  (VCon (c_bad, [ from_whnf (exn_to_value x) ]))),
                             frames ));
                      true))
          | Ok_v (VCon (c, [ v ])) when String.equal c c_evaluate -> (
              (* evaluate e: force the argument at exactly this point in
                 the thread's IO sequence (see Iosem). *)
              match force v with
              | Ok_v value ->
                  set_state t
                    (Runnable (return_thunk (Ok_v value), frames));
                  true
              | Bad s ->
                  if Oracle.diverge_on_non_termination oracle s then begin
                    main_result := Some Diverged;
                    true
                  end
                  else begin
                    unwind_t t (pick s) frames;
                    true
                  end)
          | Ok_v (VCon (c, [ acq; rel; use ])) when String.equal c c_bracket
            ->
              enter_mask t;
              set_state t (Runnable (acq, F_bracket (rel, use) :: frames));
              true
          | Ok_v (VCon (c, [ m1; h ])) when String.equal c c_on_exception ->
              set_state t (Runnable (m1, F_onexn h :: frames));
              true
          | Ok_v (VCon (c, [ m1 ])) when String.equal c c_mask ->
              enter_mask t;
              set_state t (Runnable (m1, F_mask_pop :: frames));
              true
          | Ok_v (VCon (c, [ m1 ])) when String.equal c c_unmask ->
              leave_mask t;
              set_state t (Runnable (m1, F_unmask_pop :: frames));
              true
          | Ok_v (VCon (c, [ n; m1 ])) when String.equal c c_timeout -> (
              match force n with
              | Ok_v (VInt k) ->
                  set_state t
                    (Runnable (m1, F_timeout (!clock + max 0 k) :: frames));
                  true
              | Ok_v _ ->
                  main_result :=
                    Some (Stuck "timeout: budget is not an integer");
                  true
              | Bad s ->
                  unwind_t t (pick s) frames;
                  true)
          | Ok_v (VCon (c, [ n; b; m1 ])) when String.equal c c_retry -> (
              match (force n, force b) with
              | Ok_v (VInt attempts), Ok_v (VInt backoff) ->
                  set_state t
                    (Runnable
                       (m1, F_retry (m1, max 0 attempts, max 1 backoff) :: frames));
                  true
              | Bad s, _ | _, Bad s ->
                  unwind_t t (pick s) frames;
                  true
              | _ ->
                  main_result :=
                    Some (Stuck "retry: attempts/backoff are not integers");
                  true)
          | Ok_v (VCon (c, [ m1 ])) when String.equal c "Fork" ->
              let child = new_thread m1 [] in
              (* The child starts at the parent's mask depth: a thread
                 forked inside an acquire is born protected, so an async
                 exception cannot slip in before its own mask/bracket. *)
              child.mask <- t.mask;
              if Obs.on tr then
                Obs.record tr
                  (Obs.Ev_io (Printf.sprintf "fork thread %d" child.tid));
              emit (E_fork (t.tid, child.tid));
              set_state t
                (Runnable (return_thunk (Ok_v (VCon (c_unit, []))), frames));
              true
          | Ok_v (VCon (c, [])) when String.equal c "NewMVar" ->
              let id = !next_mvar in
              incr next_mvar;
              Hashtbl.replace mvars id
                {
                  contents = None;
                  take_waiters = Fifo.create ();
                  put_waiters = Fifo.create ();
                };
              set_state t
                (Runnable
                   ( return_thunk
                       (Ok_v (VCon (mvar_con, [ from_whnf (Ok_v (VInt id)) ]))),
                     frames ));
              true
          | Ok_v (VCon (c, [ r ])) when String.equal c "TakeMVar" -> (
              match as_mvar_id (force r) with
              | Result.Error msg ->
                  unwind_t t (Exn.Type_error msg) frames;
                  true
              | Result.Ok id -> (
                  let m = Hashtbl.find mvars id in
                  match m.contents with
                  | Some v ->
                      m.contents <- None;
                      (* a blocked putter can now deposit *)
                      (match Fifo.pop_head m.put_waiters with
                      | Some w -> wake w
                      | None -> ());
                      set_state t (Runnable (return_thunk (force v), frames));
                      true
                  | None ->
                      emit (E_block t.tid);
                      set_state t (Blocked_take (id, frames));
                      t.blocked_on <-
                        Some
                          ( m.take_waiters,
                            Fifo.push_tail m.take_waiters t.tid );
                      true))
          | Ok_v (VCon (c, [ r; v ])) when String.equal c "PutMVar" -> (
              match as_mvar_id (force r) with
              | Result.Error msg ->
                  unwind_t t (Exn.Type_error msg) frames;
                  true
              | Result.Ok id -> (
                  let m = Hashtbl.find mvars id in
                  match m.contents with
                  | None ->
                      m.contents <- Some v;
                      (match Fifo.pop_head m.take_waiters with
                      | Some w -> wake w
                      | None -> ());
                      set_state t
                        (Runnable
                           (return_thunk (Ok_v (VCon (c_unit, []))), frames));
                      true
                  | Some _ ->
                      emit (E_block t.tid);
                      set_state t (Blocked_put (id, v, frames));
                      t.blocked_on <-
                        Some (m.put_waiters, Fifo.push_tail m.put_waiters t.tid);
                      true))
          | Ok_v (VCon (c, [ n ])) when String.equal c "NewChan" -> (
              match force n with
              | Ok_v (VInt k) ->
                  let id = !next_chan in
                  incr next_chan;
                  Hashtbl.replace chans id
                    {
                      cap = max 1 k;
                      buf = Queue.create ();
                      readers = Fifo.create ();
                      writers = Fifo.create ();
                    };
                  set_state t
                    (Runnable
                       ( return_thunk
                           (Ok_v
                              (VCon (chan_con, [ from_whnf (Ok_v (VInt id)) ]))),
                         frames ));
                  true
              | Ok_v _ ->
                  main_result :=
                    Some (Stuck "newChan: capacity is not an integer");
                  true
              | Bad s ->
                  unwind_t t (pick s) frames;
                  true)
          | Ok_v (VCon (c, [ r ])) when String.equal c "ReadChan" -> (
              match as_chan_id (force r) with
              | Result.Error msg ->
                  unwind_t t (Exn.Type_error msg) frames;
                  true
              | Result.Ok id ->
                  let ch = Hashtbl.find chans id in
                  if not (Queue.is_empty ch.buf) then begin
                    let v = Queue.pop ch.buf in
                    (* room appeared: the oldest blocked writer deposits *)
                    (match Fifo.pop_head ch.writers with
                    | Some w -> wake_writer w
                    | None -> ());
                    set_state t (Runnable (return_thunk (force v), frames))
                  end
                  else begin
                    emit (E_block t.tid);
                    set_state t (Blocked_read (id, frames));
                    t.blocked_on <-
                      Some (ch.readers, Fifo.push_tail ch.readers t.tid)
                  end;
                  true)
          | Ok_v (VCon (c, [ r; v ])) when String.equal c "WriteChan" -> (
              match as_chan_id (force r) with
              | Result.Error msg ->
                  unwind_t t (Exn.Type_error msg) frames;
                  true
              | Result.Ok id ->
                  let ch = Hashtbl.find chans id in
                  if Queue.length ch.buf < ch.cap then begin
                    Queue.push v ch.buf;
                    (match Fifo.pop_head ch.readers with
                    | Some w -> wake_reader w
                    | None -> ());
                    set_state t
                      (Runnable
                         (return_thunk (Ok_v (VCon (c_unit, []))), frames))
                  end
                  else begin
                    emit (E_block t.tid);
                    set_state t (Blocked_write (id, v, frames));
                    t.blocked_on <-
                      Some (ch.writers, Fifo.push_tail ch.writers t.tid)
                  end;
                  true)
          | Ok_v (VCon (c, [])) when String.equal c "MyThreadId" ->
              set_state t
                (Runnable
                   ( return_thunk
                       (Ok_v
                          (VCon ("ThreadId", [ from_whnf (Ok_v (VInt t.tid)) ]))),
                     frames ));
              true
          | Ok_v (VCon (c, [ tt; et ])) when String.equal c "ThrowTo" -> (
              match force tt with
              | Ok_v (VCon (ct, [ nt ])) when String.equal ct "ThreadId" -> (
                  match force nt with
                  | Ok_v (VInt target) -> (
                      match exn_of_whnf (force et) with
                      | Ok x ->
                          if Obs.on tr then
                            Obs.record tr (Obs.Ev_throwto (t.tid, target, x));
                          emit (E_throwto (t.tid, target, x));
                          if target = t.tid then begin
                            (* throwTo to oneself is synchronous (GHC):
                               deliver regardless of masking. *)
                            counters.throwtos_delivered <-
                              counters.throwtos_delivered + 1;
                            if Obs.on tr then
                              Obs.record tr (Obs.Ev_kill_delivered (t.tid, x));
                            emit (E_async (t.tid, x));
                            unwind_t t x frames
                          end
                          else begin
                            enqueue_pending target x;
                            set_state t
                              (Runnable
                                 ( return_thunk (Ok_v (VCon (c_unit, []))),
                                   frames ))
                          end;
                          true
                      | Error (Bad s) ->
                          unwind_t t (pick s) frames;
                          true
                      | Error _ ->
                          unwind_t t
                            (Exn.Type_error "throwTo: not an exception")
                            frames;
                          true)
                  | Ok_v _ ->
                      unwind_t t (Exn.Type_error "throwTo: not a ThreadId")
                        frames;
                      true
                  | Bad s ->
                      unwind_t t (pick s) frames;
                      true)
              | Ok_v _ ->
                  unwind_t t (Exn.Type_error "throwTo: not a ThreadId") frames;
                  true
              | Bad s ->
                  unwind_t t (pick s) frames;
                  true)
              | Ok_v _ ->
                  main_result := Some (Stuck "not an IO value");
                  true))
  in

  (* Round-start phase 1: wake every sleeper whose deadline passed.
     Heap entries are validated against the thread's live state (lazy
     deletion); ties pop in (deadline, tid) order. *)
  let rec wake_due_sleepers () =
    match Heap.peek sleep_heap with
    | Some (until, tid) when until <= !clock ->
        ignore (Heap.pop sleep_heap);
        let t = find_thread tid in
        (match t.state with
        | Sleeping (u, action, frames) when u = until ->
            emit (E_wake tid);
            set_state t (Runnable (action, frames))
        | _ -> () (* stale entry *));
        wake_due_sleepers ()
    | _ -> ()
  in

  (* The earliest deadline of a live sleeper, discarding stale heap
     entries on the way. *)
  let rec earliest_sleeper () =
    match Heap.peek sleep_heap with
    | None -> None
    | Some (until, tid) -> (
        match (find_thread tid).state with
        | Sleeping (u, _, _) when u = until -> Some until
        | _ ->
            ignore (Heap.pop sleep_heap);
            earliest_sleeper ())
  in

  (* Round-start phase 3: blocked and sleeping threads cannot reach a
     delivery point on their own; deliver to the flagged ones (masked
     MVar waiters and sleepers keep their pending exceptions — their
     mask cannot change while they are not runnable, so there is no
     point re-flagging them; channel waiters are interruptible
     regardless). *)
  let drain_signaled () =
    let flagged = Bitq.to_list signaled in
    List.iter
      (fun tid ->
        Bitq.remove signaled tid;
        let t = find_thread tid in
        match t.state with
        | Blocked_take (_, frames)
        | Blocked_put (_, _, frames)
        | Sleeping (_, _, frames) -> (
            match take_pending_exn t with
            | Some x -> deliver_unwind t x frames
            | None -> ())
        | Blocked_read (_, frames) | Blocked_write (_, _, frames) -> (
            match take_pending_exn_interruptible t with
            | Some x -> deliver_unwind t x frames
            | None -> ())
        | Runnable _ | Finished ->
            () (* woke up meanwhile: its own step delivers *))
      flagged
  in

  (* ---------------------------------------------------------------- *)
  (* Debug-flag invariant checks (satellite: every runnable thread in   *)
  (* the run queue exactly once, every blocked thread with exactly one  *)
  (* blocked-on edge, channel bounds), with a flight-recorder dump on   *)
  (* violation.                                                         *)
  (* ---------------------------------------------------------------- *)
  let sched_violation msg =
    let extra =
      [
        ("round", string_of_int !round);
        ("clock", string_of_int !clock);
        ("threads", string_of_int !spawned);
        ("runnable", string_of_int (Bitq.cardinal runq));
        ("blocked", string_of_int (Bitq.cardinal blockedq));
        ("sleeping", string_of_int !n_sleeping);
      ]
    in
    raise
      (Obs.Machine_invariant
         (Obs.dump ~extra ~note:("scheduler invariant: " ^ msg) tr))
  in
  let check_indices () =
    let sleeping = ref 0 in
    Hashtbl.iter
      (fun tid t ->
        (match t.state with
        | Runnable _ ->
            if not (Bitq.mem runq tid) then
              sched_violation
                (Printf.sprintf "runnable t%d missing from run queue" tid)
        | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _
          -> (
            if not (Bitq.mem blockedq tid) then
              sched_violation
                (Printf.sprintf "blocked t%d missing from blocked set" tid);
            match t.blocked_on with
            | None ->
                sched_violation
                  (Printf.sprintf "blocked t%d has no blocked-on edge" tid)
            | Some (_, n) ->
                if not n.Fifo.in_q then
                  sched_violation
                    (Printf.sprintf
                       "blocked t%d's blocked-on edge is detached" tid);
                if n.Fifo.value <> tid then
                  sched_violation
                    (Printf.sprintf
                       "blocked t%d's blocked-on edge names t%d" tid
                       n.Fifo.value))
        | Sleeping _ -> incr sleeping
        | Finished -> ());
        (match t.state with
        | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _
          ->
            ()
        | _ ->
            if t.blocked_on <> None then
              sched_violation
                (Printf.sprintf "non-blocked t%d holds a blocked-on edge"
                   tid));
        match t.state with
        | Runnable _ -> ()
        | _ ->
            if Bitq.mem runq tid then
              sched_violation
                (Printf.sprintf "non-runnable t%d in run queue" tid))
      threads;
    if !sleeping <> !n_sleeping then
      sched_violation
        (Printf.sprintf "sleeper count %d but %d threads sleeping"
           !n_sleeping !sleeping);
    Bitq.iter
      (fun tid ->
        match (find_thread tid).state with
        | Runnable _ -> ()
        | _ ->
            sched_violation
              (Printf.sprintf "run queue names non-runnable t%d" tid))
      runq;
    Bitq.iter
      (fun tid ->
        match (find_thread tid).state with
        | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _
          ->
            ()
        | _ ->
            sched_violation
              (Printf.sprintf "blocked set names non-blocked t%d" tid))
      blockedq;
    Hashtbl.iter
      (fun id c ->
        if Queue.length c.buf > c.cap then
          sched_violation
            (Printf.sprintf "channel %d holds %d > cap %d" id
               (Queue.length c.buf) c.cap);
        if Fifo.length c.readers > 0 && not (Queue.is_empty c.buf) then
          sched_violation
            (Printf.sprintf "channel %d has readers waiting on data" id);
        if Fifo.length c.writers > 0 && Queue.length c.buf < c.cap then
          sched_violation
            (Printf.sprintf "channel %d has writers waiting on room" id))
      chans
  in

  let rec scheduler steps =
    match !main_result with
    | Some o -> o
    | None ->
        if steps >= max_steps then Diverged
        else begin
          wake_due_sleepers ();
          (* Due kill-schedule entries become pending thread-targeted
             exceptions (the fault-injection axis; sends to finished or
             unknown threads are dropped, like a dead [throwTo]). *)
          let due, later =
            List.partition (fun (k, _, _) -> !clock >= k) !kills
          in
          kills := later;
          List.iter (fun (_, target, x) -> enqueue_pending target x) due;
          drain_signaled ();
          match !main_result with
          | Some o -> o
          | None ->
              if check_invariants then check_indices ();
              if Bitq.is_empty runq then begin
                if !n_sleeping > 0 then begin
                  (* Only sleepers left: fast-forward the clock to the
                     earliest wake-up instead of deadlocking. *)
                  (match earliest_sleeper () with
                  | Some until -> clock := until
                  | None -> sched_violation "sleeper heap lost an entry");
                  scheduler (steps + 1)
                end
                else begin
                  (* Irrecoverably blocked. Instead of giving up with a
                     global [Deadlock], deliver [BlockedIndefinitely] to
                     every unmasked blocked thread — and every
                     channel-blocked thread, masked or not — in tid
                     order, as a catchable imprecise exception, and keep
                     scheduling; only when every blocked thread is a
                     masked MVar waiter is this a true deadlock. *)
                  let victims = ref [] in
                  Bitq.iter
                    (fun tid ->
                      let t = find_thread tid in
                      match t.state with
                      | (Blocked_take _ | Blocked_put _) when t.mask = 0 ->
                          victims := t :: !victims
                      | Blocked_read _ | Blocked_write _ ->
                          victims := t :: !victims
                      | _ -> ())
                    blockedq;
                  match List.rev !victims with
                  | [] -> Deadlock
                  | victims ->
                      List.iter
                        (fun t ->
                          let frames =
                            match t.state with
                            | Blocked_take (_, fs) | Blocked_read (_, fs) ->
                                fs
                            | Blocked_put (_, _, fs)
                            | Blocked_write (_, _, fs) ->
                                fs
                            | _ -> []
                          in
                          counters.blocked_recoveries <-
                            counters.blocked_recoveries + 1;
                          if Obs.on tr then
                            Obs.record tr (Obs.Ev_blocked_recover t.tid);
                          emit (E_async (t.tid, Exn.Blocked_indefinitely));
                          unwind_t t Exn.Blocked_indefinitely frames)
                        victims;
                      scheduler (steps + 1)
                end
              end
              else begin
                (* The stepping round. Bumping the round counter here —
                   after the wake/kill/delivery phases — stamps threads
                   woken by those phases as steppable this round, while
                   threads woken mid-round by another thread's step are
                   stamped with the new round and skipped: exactly the
                   seed's snapshot-then-step schedule. *)
                round := !round + 1;
                let rec go i =
                  match Bitq.next_geq runq i with
                  | None -> ()
                  | Some tid ->
                      let t = find_thread tid in
                      if t.stamp <> !round then ignore (step t);
                      go (tid + 1)
                in
                go 0;
                scheduler (steps + 1)
              end
        end
  in
  let outcome =
    match scheduler 0 with
    | o -> o
    | exception Stack_overflow -> Diverged
  in
  {
    trace = List.rev !trace_rev;
    outcome;
    threads_spawned = !spawned;
    context_switches = !switches;
    counters;
  }

let output_string_of r =
  let buf = Buffer.create 16 in
  List.iter
    (function
      | E_write (_, c) -> Buffer.add_char buf c
      | _ -> ())
    r.trace;
  Buffer.contents buf
