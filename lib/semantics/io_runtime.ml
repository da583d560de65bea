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
  | Done of Sem_value.deep
  | Uncaught of Exn.t
  | Deadlock
  | Diverged
  | Stuck of string

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
  | Done d -> Fmt.pf ppf "Done %a" Sem_value.pp_deep d
  | Uncaught e -> Fmt.pf ppf "Uncaught %a" Exn.pp e
  | Deadlock -> Fmt.string ppf "Deadlock"
  | Diverged -> Fmt.string ppf "Diverged"
  | Stuck msg -> Fmt.pf ppf "Stuck %S" msg

let output_of events =
  let buf = Buffer.create 16 in
  List.iter (function E_write (_, c) -> Buffer.add_char buf c | _ -> ()) events;
  Buffer.contents buf

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

type schedule = (int * Exn.t) list
type kills = (int * int * Exn.t) list

let debug_default () = Sys.getenv_opt "IMPEXN_SCHED_DEBUG" <> None

type ('v, 'f) action =
  | Return of 'v
  | Bind of 'v * 'v
  | Get_char
  | Put_char of 'v
  | Get_exception of 'v
  | Evaluate of 'v
  | Bracket of 'v * 'v * 'v
  | On_exception of 'v * 'v
  | Mask of 'v
  | Unmask of 'v
  | Timeout of 'v * 'v
  | Retry of 'v * 'v * 'v
  | Fork of 'v
  | New_mvar
  | Take_mvar of 'v
  | Put_mvar of 'v * 'v
  | New_chan of 'v
  | Read_chan of 'v
  | Write_chan of 'v * 'v
  | My_thread_id
  | Throw_to of 'v * 'v
  | Failed of 'f
  | Not_io

type fate = Raise of Exn.t | Diverge | Wedged of string
type ('a, 'f) arg = Arg of 'a | Arg_failed of 'f | Ill_typed

type 'v caught =
  | Caught_action of 'v
  | Caught_value of 'v
  | Caught of fate

type ref_kind = Mvar_ref | Chan_ref | Thread_ref

module type EVALUATOR = sig
  type t
  type value
  type failure

  val decode : t -> value -> (value, failure) action
  val resolve : t -> failure -> fate
  val catch : t -> mask:int -> value -> value caught
  val whnf : t -> value -> (value, failure) result
  val char_of : t -> value -> (char, failure) arg
  val int_of : t -> value -> (int, failure) arg
  val exn_of : t -> value -> (Exn.t, failure) arg
  val ref_of : t -> ref_kind -> value -> (int, failure) arg
  val call : t -> value -> value -> (value, failure) arg
  val apply : t -> value -> value -> value
  val pure : t -> value -> value
  val unit : t -> value
  val char : t -> char -> value
  val ref_value : t -> ref_kind -> int -> value
  val ok : t -> value -> value
  val bad : t -> Exn.t -> value
  val just : t -> value -> value
  val nothing : t -> value
  val deep : t -> value -> Sem_value.deep
  val refuel : t -> unit
  val collect : t -> value list -> value list
end

type result = {
  events : event list;
  outcome : outcome;
  threads_spawned : int;
  switches : int;
  clock : int;
  counters : counters;
}

module Make (E : EVALUATOR) = struct
  (* The IO continuation stack, one per thread. Plain [>>=]
     continuations ride alongside the administrative frames of the
     exception-safety combinators; normal returns pop frames with [pop],
     exceptions trim them with [unwind] — running the protected cleanups
     on the way down, exactly like the machine's trim-the-stack rule but
     one level up. *)
  type frame =
    | F_k of E.value  (** [>>=] continuation awaiting the result. *)
    | F_bracket of E.value * E.value
        (** [(release, use)] — the acquire action is running (masked). *)
    | F_release of E.value
        (** The applied release action; runs on either exit path. *)
    | F_onexn of E.value  (** Handler, run only on the exceptional path. *)
    | F_mask_pop  (** Leave a [Mask] section. *)
    | F_unmask_pop  (** Leave an [Unmask] section. *)
    | F_timeout of int  (** Deadline in clock ticks. *)
    | F_retry of E.value * int * int
        (** [(action, attempts_left, next_backoff)]. *)
    | F_rethrow of Exn.t
        (** Continue unwinding with this exception once the cleanup above
            finishes normally; a cleanup that itself raises wins. *)
    | F_restore of E.value
        (** Continue popping with this saved value once the cleanup above
            finishes (the cleanup's own result is discarded). *)
    | F_catch
        (** [getException] on an IO action: a normal result pops as
            [OK v], an unwinding exception — including one delivered
            while the thread is blocked — stops here as [Bad e]. *)

  let map_frame f = function
    | F_k a -> F_k (f a)
    | F_bracket (rel, use) ->
        let rel = f rel in
        F_bracket (rel, f use)
    | F_release a -> F_release (f a)
    | F_onexn a -> F_onexn (f a)
    | F_retry (a, n, b) -> F_retry (f a, n, b)
    | F_restore a -> F_restore (f a)
    | (F_mask_pop | F_unmask_pop | F_timeout _ | F_rethrow _ | F_catch) as fr
      ->
        fr

  type thread_state =
    | Runnable of E.value * frame list  (** IO value, continuation frames *)
    | Blocked_take of int * frame list
    | Blocked_put of int * E.value * frame list
        (** mvar, value to deposit, frames *)
    | Blocked_read of int * frame list  (** channel, frames *)
    | Blocked_write of int * E.value * frame list
        (** channel, value to deposit, frames *)
    | Sleeping of int * E.value * frame list
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
        (** Round in which the thread last became runnable. A thread
            woken or forked mid-round carries the current round's stamp
            and is skipped by the stepping cursor — the seed scheduler's
            runnable-snapshot-per-round semantics without building the
            snapshot. *)
    mutable blocked_on : (int Fifo.t * int Fifo.node) option;
        (** The blocked-on edge: the waiter queue this thread sits in
            and its node there. Maintained incrementally, so exceptional
            wakeups detach in O(1) instead of scanning every cell. *)
  }

  type mvar = {
    mutable contents : E.value option;
    take_waiters : int Fifo.t;
    put_waiters : int Fifo.t;
  }

  (* A bounded channel: a FIFO buffer of at most [cap] elements, plus
     waiter queues for readers of an empty buffer and writers of a full
     one. Invariants (checked under the debug flag): readers wait only
     while the buffer is empty, writers only while it is full, so a wake
     never cascades. A blocked writer's element lives in its thread
     state, not the buffer, until the deposit actually happens — killing
     a blocked writer can therefore never lose a buffered element. *)
  type chan = {
    cap : int;
    buf : E.value Queue.t;
    readers : int Fifo.t;
    writers : int Fifo.t;
  }

  let run ev ~trace:tr ~concurrent ~input ~async ~kills ~check_invariants
      ~max_steps ~gc_every (main : E.value) =
    let trace_rev = ref [] in
    let emit e = trace_rev := e :: !trace_rev in
    let threads : (int, thread) Hashtbl.t = Hashtbl.create 64 in
    let next_tid = ref 0 in
    let switches = ref 0 in
    let clock = ref 0 in
    let round = ref 0 in
    (* Delivery only looks at the head, so the schedule is put in step
       order once; events due at the same step keep their order. *)
    let pending =
      ref (List.stable_sort (fun (a, _) (b, _) -> compare a b) async)
    in
    let kills = ref kills in
    let counters = fresh_counters () in
    let mvars : (int, mvar) Hashtbl.t = Hashtbl.create 8 in
    let chans : (int, chan) Hashtbl.t = Hashtbl.create 8 in
    let input_pos = ref 0 in
    let main_result : outcome option ref = ref None in
    let stop o = main_result := Some o in
    let gc_due = ref false in

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

    (* Every state change goes through here so the indices stay exact:
       leaving a state retires its index entry (including the blocked-on
       edge), and entering one installs it. *)
    let set_state (t : thread) (st : thread_state) =
      (match t.state with
      | Runnable _ -> Bitq.remove runq t.tid
      | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _ ->
          Bitq.remove blockedq t.tid;
          Option.iter (fun (q, n) -> Fifo.remove q n) t.blocked_on;
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
    let block (t : thread) st q =
      emit (E_block t.tid);
      set_state t st;
      t.blocked_on <- Some (q, Fifo.push_tail q t.tid)
    in

    let new_thread v frames =
      let tid = !next_tid in
      incr next_tid;
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
      set_state t (Runnable (v, frames));
      t
    in
    let main_thread = new_thread main [] in

    (* Garbage collection: every value the runtime holds is a root. One
       traversal lists them and, given the relocated addresses, writes
       them back in the same order. *)
    let visit_roots (f : E.value -> E.value) =
      let frames = List.map (map_frame f) in
      for tid = 0 to !next_tid - 1 do
        let t = find_thread tid in
        t.state <-
          (match t.state with
          | Runnable (v, fs) ->
              let v = f v in
              Runnable (v, frames fs)
          | Blocked_take (id, fs) -> Blocked_take (id, frames fs)
          | Blocked_put (id, v, fs) ->
              let v = f v in
              Blocked_put (id, v, frames fs)
          | Blocked_read (id, fs) -> Blocked_read (id, frames fs)
          | Blocked_write (id, v, fs) ->
              let v = f v in
              Blocked_write (id, v, frames fs)
          | Sleeping (u, v, fs) ->
              let v = f v in
              Sleeping (u, v, frames fs)
          | Finished -> Finished)
      done;
      for id = 0 to Hashtbl.length mvars - 1 do
        let m = Hashtbl.find mvars id in
        m.contents <- Option.map f m.contents
      done;
      for id = 0 to Hashtbl.length chans - 1 do
        let c = Hashtbl.find chans id in
        let items = List.of_seq (Queue.to_seq c.buf) in
        Queue.clear c.buf;
        List.iter (fun v -> Queue.push (f v) c.buf) items
      done
    in
    let collect () =
      gc_due := false;
      let roots = ref [] in
      visit_roots (fun v ->
          roots := v :: !roots;
          v);
      let moved = ref (E.collect ev (List.rev !roots)) in
      visit_roots (fun _ ->
          match !moved with
          | v :: rest ->
              moved := rest;
              v
          | [] -> invalid_arg "Io_runtime: collection lost a root")
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

    (* The runtime's own asynchronous schedule, delivered at an unmasked
       getException (Section 5.1). *)
    let pending_async (t : thread) =
      if t.mask > 0 then None
      else
        match !pending with
        | (k, x) :: rest when !clock >= k ->
            pending := rest;
            Some x
        | _ -> None
    in

    let finish (t : thread) v =
      emit (E_thread_done t.tid);
      if t.tid = main_thread.tid then stop (Done (E.deep ev v));
      set_state t Finished
    in
    let die (t : thread) exn =
      if t.tid = main_thread.tid then stop (Uncaught exn)
      else emit (E_thread_died (t.tid, exn));
      set_state t Finished
    in
    let resume t v frames = set_state t (Runnable (E.pure ev v, frames)) in

    (* Normal return [v] through thread [t]'s frames; installs the next
       runnable action (or finishes the thread). *)
    let rec pop (t : thread) v stack =
      match stack with
      | [] -> finish t v
      | F_k k :: rest ->
          with_arg t rest (Wedged ">>=: not a function") (E.call ev k v)
            (fun a -> set_state t (Runnable (a, rest)))
      | F_bracket (rel, use) :: rest ->
          (* Acquire finished: the release is now registered; unmask and
             run the use phase under its protection. *)
          counters.brackets_entered <- counters.brackets_entered + 1;
          if Obs.on tr then Obs.record tr Obs.Ev_acquire;
          leave_mask t;
          set_state t
            (Runnable (E.apply ev use v, F_release (E.apply ev rel v) :: rest))
      | F_release r :: rest ->
          counters.brackets_released <- counters.brackets_released + 1;
          if Obs.on tr then Obs.record tr Obs.Ev_release;
          enter_mask t;
          set_state t (Runnable (r, F_mask_pop :: F_restore v :: rest))
      | F_onexn _ :: rest | F_retry _ :: rest -> pop t v rest
      | F_mask_pop :: rest ->
          leave_mask t;
          pop t v rest
      | F_unmask_pop :: rest ->
          t.mask <- t.mask + 1;
          pop t v rest
      | F_timeout _ :: rest -> pop t (E.just ev v) rest
      | F_rethrow e :: rest -> unwind t e rest
      | F_restore saved :: rest -> pop t saved rest
      | F_catch :: rest ->
          if Obs.on tr then Obs.record tr (Obs.Ev_catch None);
          pop t (E.ok ev v) rest

    (* Exceptional return: trim the stack, running releases and handlers,
       or kill the thread at the bottom. *)
    and unwind (t : thread) (e : Exn.t) stack =
      match stack with
      | [] -> die t e
      | F_k _ :: rest | F_rethrow _ :: rest | F_restore _ :: rest ->
          (* A cleanup that raises while unwinding: the newer exception
             wins. *)
          unwind t e rest
      | F_bracket _ :: rest ->
          (* The acquire itself failed: nothing to release. *)
          leave_mask t;
          unwind t e rest
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
          unwind t e rest
      | F_unmask_pop :: rest ->
          t.mask <- t.mask + 1;
          unwind t e rest
      | F_timeout _ :: rest when e = Exn.Timeout -> pop t (E.nothing ev) rest
      | F_timeout _ :: rest -> unwind t e rest
      | F_retry (action, attempts, backoff) :: rest ->
          if attempts > 0 then begin
            counters.retries <- counters.retries + 1;
            (* Deterministic backoff on the clock, so the wait interacts
               reproducibly with timeouts and the fault schedules. *)
            let until = !clock + backoff in
            emit (E_sleep (t.tid, until));
            set_state t
              (Sleeping
                 (until, action, F_retry (action, attempts - 1, 2 * backoff)
                                 :: rest))
          end
          else unwind t e rest
      | F_catch :: rest ->
          if Obs.on tr then Obs.record tr (Obs.Ev_catch (Some e));
          (* A caught HeapOverflow frees the abandoned allocations before
             the handler runs, so a supervisor has room to recover. *)
          if e = Exn.Heap_overflow then gc_due := true;
          pop t (E.bad ev e) rest

    and settle t frames = function
      | Raise x -> unwind t x frames
      | Diverge -> stop Diverged
      | Wedged msg -> stop (Stuck msg)

    and with_arg : 'a. thread -> frame list -> fate -> ('a, E.failure) arg ->
        ('a -> unit) -> unit =
     fun t frames ill a k ->
      match a with
      | Arg x -> k x
      | Arg_failed f -> settle t frames (E.resolve ev f)
      | Ill_typed -> settle t frames ill
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
              resume t v frames
          | None -> () (* someone else won the race; stay blocked *))
      | Blocked_put (mv, v, frames) -> (
          let m = Hashtbl.find mvars mv in
          match m.contents with
          | None ->
              m.contents <- Some v;
              emit (E_wake tid);
              resume t (E.unit ev) frames
          | Some _ -> ())
      | Runnable _ | Blocked_read _ | Blocked_write _ | Sleeping _ | Finished
        ->
          ()
    in

    (* Channel wakes. The channel invariants guarantee the precondition
       of each: when a writer wakes a reader it has just pushed, so the
       buffer is non-empty; when a reader wakes a writer it has just
       popped, so there is room. Neither wake can strand a further
       waiter. *)
    let wake_reader tid =
      let t = find_thread tid in
      match t.state with
      | Blocked_read (id, frames) ->
          let v = Queue.pop (Hashtbl.find chans id).buf in
          emit (E_wake tid);
          resume t v frames
      | _ -> ()
    in
    let wake_writer tid =
      let t = find_thread tid in
      match t.state with
      | Blocked_write (id, v, frames) ->
          Queue.push v (Hashtbl.find chans id).buf;
          emit (E_wake tid);
          resume t (E.unit ev) frames
      | _ -> ()
    in

    (* Channel blocking is an interruptible point in the PLDI'01 sense:
       delivery there ignores the mask (unlike MVar blocking, which keeps
       this runtime's strict masked-block discipline). *)
    let take_pending_exn ~interruptible (t : thread) =
      if t.mask > 0 && not interruptible then None
      else
        match t.pending_exns with
        | [] -> None
        | x :: rest ->
            t.pending_exns <- rest;
            Some x
    in

    (* Thread-targeted delivery by unwinding [t]'s frames: releases and
       handlers run, an [F_catch] stops it. The blocked-on edge is
       detached by [set_state] when the unwind leaves the blocked
       state. *)
    let deliver_unwind (t : thread) x frames =
      counters.throwtos_delivered <- counters.throwtos_delivered + 1;
      if Obs.on tr then Obs.record tr (Obs.Ev_kill_delivered (t.tid, x));
      emit (E_async (t.tid, x));
      unwind t x frames
    in

    (* Queue a thread-targeted exception and flag the target for
       round-start delivery if it cannot reach a delivery point on its
       own. Sends to finished or unknown threads are no-ops. *)
    let enqueue_pending target x =
      match Hashtbl.find_opt threads target with
      | None -> ()
      | Some tgt -> (
          match tgt.state with
          | Finished -> ()
          | Runnable _ -> tgt.pending_exns <- tgt.pending_exns @ [ x ]
          | Blocked_take _ | Blocked_put _ | Blocked_read _
          | Blocked_write _ | Sleeping _ ->
              tgt.pending_exns <- tgt.pending_exns @ [ x ];
              Bitq.add signaled tgt.tid)
    in

    let expired (t : thread) stack =
      t.mask = 0
      && List.exists (function F_timeout d -> d <= !clock | _ -> false) stack
    in

    let not_an_mvar = Raise (Exn.Type_error "not an MVar") in
    let not_a_chan = Raise (Exn.Type_error "not a channel") in

    (* One transition of a runnable thread performing [v]. *)
    let perform (t : thread) v frames =
      let push a f = set_state t (Runnable (a, f :: frames)) in
      let arg ill a k = with_arg t frames ill a k in
      match E.decode ev v with
      | Failed f -> settle t frames (E.resolve ev f)
      | Return a -> pop t a frames
      | Bind (m, k) -> push m (F_k k)
      | Get_char ->
          if !input_pos >= String.length input then
            stop (Stuck "getChar: end of input")
          else begin
            let ch = input.[!input_pos] in
            incr input_pos;
            emit (E_read (t.tid, ch));
            resume t (E.char ev ch) frames
          end
      | Put_char a ->
          arg (Wedged "putChar: not a character") (E.char_of ev a) (fun ch ->
              emit (E_write (t.tid, ch));
              resume t (E.unit ev) frames)
      | Get_exception a -> (
          match pending_async t with
          | Some x ->
              (* getException v —¡x→ return (Bad x): v may be discarded
                 even if normal (Section 5.1). *)
              counters.async_delivered <- counters.async_delivered + 1;
              if Obs.on tr then begin
                Obs.record tr (Obs.Ev_async x);
                Obs.record tr (Obs.Ev_catch (Some x))
              end;
              emit (E_async (t.tid, x));
              resume t (E.bad ev x) frames
          | None -> (
              match E.catch ev ~mask:t.mask a with
              | Caught_action io -> push io F_catch
              | Caught_value w -> resume t (E.ok ev w) frames
              | Caught (Raise x) ->
                  if x = Exn.Heap_overflow then gc_due := true;
                  resume t (E.bad ev x) frames
              | Caught fate -> settle t frames fate))
      | Evaluate a -> (
          (* evaluate e: the precise forcing point. The argument is
             forced as this action is performed, so its exception (if
             any) unwinds at exactly this point in the IO sequence. *)
          match E.whnf ev a with
          | Ok w -> resume t w frames
          | Error f -> settle t frames (E.resolve ev f))
      | Bracket (acq, rel, use) ->
          (* The acquire phase runs masked, so an async event cannot slip
             in between acquire completing and the release being
             registered. *)
          enter_mask t;
          push acq (F_bracket (rel, use))
      | On_exception (m, h) -> push m (F_onexn h)
      | Mask m ->
          enter_mask t;
          push m F_mask_pop
      | Unmask m ->
          leave_mask t;
          push m F_unmask_pop
      | Timeout (n, m) ->
          arg (Wedged "timeout: budget is not an integer") (E.int_of ev n)
            (fun k -> push m (F_timeout (!clock + max 0 k)))
      | Retry (n, b, m) -> (
          match (E.int_of ev n, E.int_of ev b) with
          | Arg attempts, Arg backoff ->
              push m (F_retry (m, max 0 attempts, max 1 backoff))
          | Arg_failed f, _ | _, Arg_failed f ->
              settle t frames (E.resolve ev f)
          | _ -> stop (Stuck "retry: attempts/backoff are not integers"))
      | (Fork _ | New_mvar | Take_mvar _ | Put_mvar _) when not concurrent ->
          stop (Stuck "not an IO value")
      | Fork m ->
          let child = new_thread m [] in
          (* The child starts at the parent's mask depth: a thread forked
             inside an acquire is born protected, so an async exception
             cannot slip in before its own mask/bracket. *)
          child.mask <- t.mask;
          if Obs.on tr then
            Obs.record tr
              (Obs.Ev_io (Printf.sprintf "fork thread %d" child.tid));
          emit (E_fork (t.tid, child.tid));
          resume t (E.unit ev) frames
      | New_mvar ->
          let id = Hashtbl.length mvars in
          Hashtbl.replace mvars id
            { contents = None; take_waiters = Fifo.create ();
              put_waiters = Fifo.create () };
          resume t (E.ref_value ev Mvar_ref id) frames
      | Take_mvar r ->
          arg not_an_mvar (E.ref_of ev Mvar_ref r) (fun id ->
              let m = Hashtbl.find mvars id in
              match m.contents with
              | Some v ->
                  m.contents <- None;
                  (* a blocked putter can now deposit *)
                  Option.iter wake (Fifo.pop_head m.put_waiters);
                  resume t v frames
              | None -> block t (Blocked_take (id, frames)) m.take_waiters)
      | Put_mvar (r, v) ->
          arg not_an_mvar (E.ref_of ev Mvar_ref r) (fun id ->
              let m = Hashtbl.find mvars id in
              match m.contents with
              | None ->
                  m.contents <- Some v;
                  Option.iter wake (Fifo.pop_head m.take_waiters);
                  resume t (E.unit ev) frames
              | Some _ -> block t (Blocked_put (id, v, frames)) m.put_waiters)
      | New_chan n ->
          arg (Wedged "newChan: capacity is not an integer") (E.int_of ev n)
            (fun k ->
              let id = Hashtbl.length chans in
              Hashtbl.replace chans id
                { cap = max 1 k; buf = Queue.create ();
                  readers = Fifo.create (); writers = Fifo.create () };
              resume t (E.ref_value ev Chan_ref id) frames)
      | Read_chan r ->
          arg not_a_chan (E.ref_of ev Chan_ref r) (fun id ->
              let c = Hashtbl.find chans id in
              if Queue.is_empty c.buf then
                block t (Blocked_read (id, frames)) c.readers
              else begin
                let v = Queue.pop c.buf in
                (* room appeared: the oldest blocked writer deposits *)
                Option.iter wake_writer (Fifo.pop_head c.writers);
                resume t v frames
              end)
      | Write_chan (r, v) ->
          arg not_a_chan (E.ref_of ev Chan_ref r) (fun id ->
              let c = Hashtbl.find chans id in
              if Queue.length c.buf < c.cap then begin
                Queue.push v c.buf;
                Option.iter wake_reader (Fifo.pop_head c.readers);
                resume t (E.unit ev) frames
              end
              else block t (Blocked_write (id, v, frames)) c.writers)
      | My_thread_id -> resume t (E.ref_value ev Thread_ref t.tid) frames
      | Throw_to (target, x) ->
          arg (Raise (Exn.Type_error "throwTo: not a ThreadId"))
            (E.ref_of ev Thread_ref target) (fun target ->
              arg (Raise (Exn.Type_error "throwTo: not an exception"))
                (E.exn_of ev x) (fun x ->
                  if Obs.on tr then
                    Obs.record tr (Obs.Ev_throwto (t.tid, target, x));
                  emit (E_throwto (t.tid, target, x));
                  if target = t.tid then begin
                    (* throwTo to oneself is synchronous (GHC): deliver
                       regardless of masking. *)
                    counters.throwtos_delivered <-
                      counters.throwtos_delivered + 1;
                    if Obs.on tr then
                      Obs.record tr (Obs.Ev_kill_delivered (t.tid, x));
                    unwind t x frames
                  end
                  else begin
                    enqueue_pending target x;
                    resume t (E.unit ev) frames
                  end))
      | Not_io -> stop (Stuck "not an IO value")
    in

    let step (t : thread) =
      (match gc_every with
      | Some k when k > 0 && !clock > 0 && !clock mod k = 0 -> gc_due := true
      | _ -> ());
      if !gc_due then collect ();
      match t.state with
      | Finished | Blocked_take _ | Blocked_put _ | Blocked_read _
      | Blocked_write _ | Sleeping _ ->
          ()
      | Runnable (v, frames) -> (
          incr switches;
          incr clock;
          E.refuel ev;
          match take_pending_exn ~interruptible:false t with
          | Some x -> (
              (* A thread-targeted exception is due (thread is unmasked).
                 If the interrupted action is a [getException] it is
                 caught right here — §5.1 delivery at getException;
                 otherwise unwind the thread's frames. *)
              match E.decode ev v with
              | Get_exception _ ->
                  counters.throwtos_delivered <-
                    counters.throwtos_delivered + 1;
                  if Obs.on tr then begin
                    Obs.record tr (Obs.Ev_kill_delivered (t.tid, x));
                    Obs.record tr (Obs.Ev_catch (Some x))
                  end;
                  emit (E_async (t.tid, x));
                  resume t (E.bad ev x) frames
              | _ -> deliver_unwind t x frames)
          | None ->
              if expired t frames then begin
                counters.timeouts_fired <- counters.timeouts_fired + 1;
                if Obs.on tr then Obs.record tr (Obs.Ev_io "timeout fired");
                unwind t Exn.Timeout frames
              end
              else perform t v frames)
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
       mask cannot change while they are not runnable; channel waiters
       are interruptible regardless). *)
    let drain_signaled () =
      let flagged = Bitq.to_list signaled in
      List.iter
        (fun tid ->
          Bitq.remove signaled tid;
          let t = find_thread tid in
          let deliver ~interruptible frames =
            Option.iter
              (fun x -> deliver_unwind t x frames)
              (take_pending_exn ~interruptible t)
          in
          match t.state with
          | Blocked_take (_, frames)
          | Blocked_put (_, _, frames)
          | Sleeping (_, _, frames) ->
              deliver ~interruptible:false frames
          | Blocked_read (_, frames) | Blocked_write (_, _, frames) ->
              deliver ~interruptible:true frames
          | Runnable _ | Finished ->
              () (* woke up meanwhile: its own step delivers *))
        flagged
    in

    (* Debug-flag invariant checks: every runnable thread in the run
       queue exactly once, every blocked thread with exactly one attached
       blocked-on edge, channel bounds — with a flight-recorder dump on
       violation. *)
    let sched_violation msg =
      let extra =
        [
          ("round", string_of_int !round);
          ("clock", string_of_int !clock);
          ("threads", string_of_int !next_tid);
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
      let fail fmt = Printf.ksprintf sched_violation fmt in
      let is_blocked = function
        | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _ ->
            true
        | _ -> false
      in
      let is_runnable = function Runnable _ -> true | _ -> false in
      let sleeping = ref 0 in
      Hashtbl.iter
        (fun tid t ->
          (match t.state with
          | Runnable _ ->
              if not (Bitq.mem runq tid) then
                fail "runnable t%d missing from run queue" tid
          | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _
            -> (
              if not (Bitq.mem blockedq tid) then
                fail "blocked t%d missing from blocked set" tid;
              match t.blocked_on with
              | None -> fail "blocked t%d has no blocked-on edge" tid
              | Some (_, n) ->
                  if not n.Fifo.in_q then
                    fail "blocked t%d's blocked-on edge is detached" tid;
                  if n.Fifo.value <> tid then
                    fail "blocked t%d's blocked-on edge names t%d" tid
                      n.Fifo.value)
          | Sleeping _ -> incr sleeping
          | Finished -> ());
          if (not (is_blocked t.state)) && t.blocked_on <> None then
            fail "non-blocked t%d holds a blocked-on edge" tid;
          if (not (is_runnable t.state)) && Bitq.mem runq tid then
            fail "non-runnable t%d in run queue" tid)
        threads;
      if !sleeping <> !n_sleeping then
        fail "sleeper count %d but %d threads sleeping" !n_sleeping !sleeping;
      Bitq.iter
        (fun tid ->
          if not (is_runnable (find_thread tid).state) then
            fail "run queue names non-runnable t%d" tid)
        runq;
      Bitq.iter
        (fun tid ->
          if not (is_blocked (find_thread tid).state) then
            fail "blocked set names non-blocked t%d" tid)
        blockedq;
      Hashtbl.iter
        (fun id c ->
          if Queue.length c.buf > c.cap then
            fail "channel %d holds %d > cap %d" id (Queue.length c.buf) c.cap;
          if Fifo.length c.readers > 0 && not (Queue.is_empty c.buf) then
            fail "channel %d has readers waiting on data" id;
          if Fifo.length c.writers > 0 && Queue.length c.buf < c.cap then
            fail "channel %d has writers waiting on room" id)
        chans
    in

    (* Irrecoverably blocked. Instead of giving up with a global
       [Deadlock], deliver [BlockedIndefinitely] to every unmasked blocked
       thread — and every channel-blocked thread, masked or not — in tid
       order, as a catchable imprecise exception; only when every blocked
       thread is a masked MVar waiter is this a true deadlock. *)
    let recover_blocked () =
      let victims = ref [] in
      Bitq.iter
        (fun tid ->
          let t = find_thread tid in
          match t.state with
          | (Blocked_take (_, fs) | Blocked_put (_, _, fs)) when t.mask = 0 ->
              victims := (t, fs) :: !victims
          | Blocked_read (_, fs) | Blocked_write (_, _, fs) ->
              victims := (t, fs) :: !victims
          | _ -> ())
        blockedq;
      List.iter
        (fun (t, frames) ->
          counters.blocked_recoveries <- counters.blocked_recoveries + 1;
          if Obs.on tr then Obs.record tr (Obs.Ev_blocked_recover t.tid);
          emit (E_async (t.tid, Exn.Blocked_indefinitely));
          unwind t Exn.Blocked_indefinitely frames)
        (List.rev !victims);
      !victims <> []
    in

    let rec scheduler () =
      match !main_result with
      | Some o -> o
      | None when !clock >= max_steps -> Diverged
      | None -> (
          wake_due_sleepers ();
          (* Due kill-schedule entries become pending thread-targeted
             exceptions (sends to finished or unknown threads are
             dropped, like a dead [throwTo]). *)
          if !kills <> [] then begin
            let due, later =
              List.partition (fun (k, _, _) -> !clock >= k) !kills
            in
            kills := later;
            List.iter (fun (_, target, x) -> enqueue_pending target x) due
          end;
          if not (Bitq.is_empty signaled) then drain_signaled ();
          match !main_result with
          | Some o -> o
          | None ->
              if check_invariants then check_indices ();
              if not (Bitq.is_empty runq) then begin
                (* The stepping round. Bumping the round counter here —
                   after the wake/kill/delivery phases — stamps threads
                   woken by those phases as steppable this round, while
                   threads woken mid-round by another thread's step are
                   stamped with the new round and skipped: exactly the
                   seed's snapshot-then-step schedule. *)
                incr round;
                let rec go i =
                  match Bitq.next_geq runq i with
                  | None -> ()
                  | Some tid ->
                      let t = find_thread tid in
                      if t.stamp <> !round then step t;
                      go (tid + 1)
                in
                go 0;
                scheduler ()
              end
              else if !n_sleeping > 0 then begin
                (* Only sleepers left: fast-forward the clock to the
                   earliest wake-up instead of deadlocking. *)
                (match earliest_sleeper () with
                | Some until -> clock := until
                | None -> sched_violation "sleeper heap lost an entry");
                scheduler ()
              end
              else if recover_blocked () then scheduler ()
              else Deadlock)
    in
    let outcome = try scheduler () with Stack_overflow -> Diverged in
    {
      events = List.rev !trace_rev;
      outcome;
      threads_spawned = !next_tid;
      switches = !switches;
      clock = !clock;
      counters;
    }
end
