(* The serve workloads: the public engine driven in-process, one
   single-threaded load generator, both backends on the same inputs.

   serve-cold and serve-hot are closed loops over one session: each
   request is submitted only once the previous reply is back. Request i
   goes to both engines back to back (alternating which goes first), so
   drift on the machine hits both backends alike. serve-mixed keeps a
   fixed number of requests in flight over two sessions with pipelined
   requests, one backend after the other: each reply admits the next
   request. *)

open Imprecise
open Report

let backends = [| ("slot", Serve.Slot); ("bytecode", Serve.Bytecode) |]

(* Requests serve-mixed keeps in flight, two per session. *)
let window = 4

(* Requests serve-mixed prepares per backend and second, more than the
   engine answers, so a phase ends on time, not for want of input. *)
let mixed_prepared_per_s = 2500

(* One request as the traced run records it. *)
type record = {
  rid : int;
  id : string;
  req : Programs.req;
  due : int64;
  hit : bool;  (** Whether the daemon's compiled-program cache hit. *)
  submit_us : float;  (** The [feed] that closed the eval block. *)
  mutable tick_us : float;  (** Ticks spent on this request. *)
  mutable reply : string;
  mutable replied : int64;
}

type bstate = {
  bname : string;
  engine : Serve.t;
  sessions : Serve.session array;
  mutable lat_ms : float list;  (** Timed requests that count. *)
  mutable attempted : int;
  mutable failed : int;
  mutable records : record list;  (** Traced run only, newest first. *)
  sp : Trace.t;
  mutable depth_max : int;
  mutable lateness_ms : float list;
  mutable hits0 : int;
  mutable misses0 : int;
  mutable phase_us : float;  (** Wall time of the phases this engine ran in. *)
  mutable busy_us : float;  (** Time the engine spent on requests: feeds and ticks. *)
}

let new_state ~traced (bname, backend) =
  let engine =
    Serve.create ~config:{ Serve.default_config with Serve.backend } ()
  in
  {
    bname;
    engine;
    sessions = [| Serve.session engine; Serve.session engine |];
    lat_ms = [];
    attempted = 0;
    failed = 0;
    records = [];
    sp = Trace.create ~on:traced;
    depth_max = 0;
    lateness_ms = [];
    hits0 = 0;
    misses0 = 0;
    phase_us = 0.0;
    busy_us = 0.0;
  }

let mark_cache st =
  let c = Serve.counters st.engine in
  st.hits0 <- c.Serve.cache_hits;
  st.misses0 <- c.Serve.cache_misses

let reported = ref 0

let check st ~id (r : Programs.req) reply =
  st.attempted <- st.attempted + 1;
  let ok = Programs.reply_matches ~id r.Programs.expect reply in
  if not ok then begin
    st.failed <- st.failed + 1;
    if !reported < 10 then begin
      incr reported;
      Printf.eprintf "%s: wrong reply for %s (%s): %s\n  source: %s\n%!" st.bname
        id r.Programs.label reply (String.escaped r.Programs.src)
    end
  end;
  ok

let open_block sess id (r : Programs.req) =
  Serve.feed sess
    (if r.Programs.opts = "" then "eval " ^ id
     else Printf.sprintf "eval %s %s" id r.Programs.opts);
  List.iter (Serve.feed sess) (String.split_on_char '\n' r.Programs.src)

(* Warm-up: each program once per engine, untimed, run to its reply. *)
let warm st (reqs : Programs.req array) =
  let sess = st.sessions.(0) in
  Array.iteri
    (fun i r ->
      let id = Printf.sprintf "w%d" i in
      open_block sess id r;
      Serve.feed sess ".";
      Serve.run_all st.engine;
      match Serve.drain sess with
      | [ reply ] -> ignore (check st ~id r reply)
      | replies ->
          st.attempted <- st.attempted + 1;
          st.failed <- st.failed + 1;
          Printf.eprintf "%s: %d replies to warm-up %s\n%!" st.bname
            (List.length replies) id)
    reqs

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)
(* ------------------------------------------------------------------ *)

let one_closed ~traced st ~rid ~id ~last (r : Programs.req) =
  let sess = st.sessions.(0) in
  let hits = (Serve.counters st.engine).Serve.cache_hits in
  let t0 = now () in
  (* A closed loop's request is due when the previous reply is back. *)
  st.lateness_ms <- ms !last t0 :: st.lateness_ms;
  st.depth_max <- max st.depth_max 1;
  open_block sess id r;
  let submit_start = now () in
  Serve.feed sess ".";
  let submit_end = now () in
  let tick_us = ref 0.0 in
  if traced then begin
    let rec go () =
      let a = now () in
      let more = Serve.tick st.engine in
      let b = now () in
      Trace.record st.sp ~rid ~parent:"request" "serve.tick" a b;
      tick_us := !tick_us +. (Int64.to_float (Int64.sub b a) /. 1e3);
      if more then go ()
    in
    go ()
  end
  else Serve.run_all st.engine;
  let replies = Serve.drain sess in
  let t1 = now () in
  last := t1;
  st.busy_us <- st.busy_us +. (ms t0 t1 *. 1e3);
  let reply = match replies with [ x ] -> x | xs -> String.concat " | " xs in
  if check st ~id r reply then st.lat_ms <- ms t0 t1 :: st.lat_ms;
  if traced then begin
    Trace.record st.sp ~rid ~parent:"request" "serve.submit" submit_start
      submit_end;
    st.records <-
      {
        rid;
        id;
        req = r;
        due = t0;
        hit = (Serve.counters st.engine).Serve.cache_hits > hits;
        submit_us = Int64.to_float (Int64.sub submit_end submit_start) /. 1e3;
        tick_us = !tick_us;
        reply;
        replied = t1;
      }
      :: st.records
  end

(* Request i goes to both engines, alternating which goes first. The
   loop ends on a multiple of [granule] requests (a whole block or pass
   of the input), so every run weighs the input's kinds alike. *)
let closed_loop ~traced ~seconds ~granule ~first_rid (states : bstate array) next =
  let t_end = Int64.add (now ()) (ns_of_s seconds) in
  let i = ref 0 in
  let last = ref (now ()) in
  while !i = 0 || now () < t_end || !i mod granule <> 0 do
    let r : Programs.req = next () in
    let order = if !i land 1 = 0 then [ 0; 1 ] else [ 1; 0 ] in
    List.iter
      (fun b ->
        one_closed ~traced states.(b) ~rid:(first_rid + !i) ~last
          ~id:(Printf.sprintf "r%d" (first_rid + !i))
          r)
      order;
    incr i
  done;
  let wall = ms (Int64.sub t_end (ns_of_s seconds)) (now ()) *. 1e3 in
  Array.iter (fun st -> st.phase_us <- st.phase_us +. wall) states;
  first_rid + !i

(* ------------------------------------------------------------------ *)
(* Fixed concurrency                                                   *)
(* ------------------------------------------------------------------ *)

let reply_id reply =
  match String.split_on_char ' ' reply with _ :: id :: _ -> id | _ -> ""

(* [window] requests in flight, alternating sessions, for [seconds] and
   up to a multiple of [granule] requests (a whole block of the mix);
   then the ones in flight are run to their replies. The requests are
   generated before the phase, so generation (and the untimed reference)
   never delays the engine. A request is due when the reply that made
   room for it is collected, and timed from its submission. *)
let window_loop ~traced ~seconds ~granule ~first_rid st (reqs : Programs.req array) =
  let n = Array.length reqs in
  let t_start = now () in
  let t_end = Int64.add t_start (ns_of_s seconds) in
  let pending : (string, record) Hashtbl.t = Hashtbl.create 64 in
  (* The daemon's run queue mirrored in submission order, so each tick's
     span is charged to the request it ran. *)
  let queue = ref [] in
  let outstanding = ref 0 in
  let freed = ref t_start in
  let collect t =
    Array.iter
      (fun sess ->
        List.iter
          (fun reply ->
            let id = reply_id reply in
            match Hashtbl.find_opt pending id with
            | None ->
                st.attempted <- st.attempted + 1;
                st.failed <- st.failed + 1;
                Printf.eprintf "%s: unexpected reply %s\n%!" st.bname reply
            | Some rc ->
                Hashtbl.remove pending id;
                decr outstanding;
                freed := t;
                queue := List.filter (fun x -> x <> id) !queue;
                rc.reply <- reply;
                rc.replied <- t;
                if check st ~id rc.req reply && Programs.short_ok rc.req then
                  st.lat_ms <- ms rc.due t :: st.lat_ms;
                if traced then st.records <- rc :: st.records)
          (Serve.drain sess))
      st.sessions
  in
  let k = ref 0 in
  let admitting () = !k < n && (now () < t_end || !k mod granule <> 0) in
  while admitting () || !outstanding > 0 do
    if admitting () && !outstanding < window then begin
      let r = reqs.(!k) in
      let rid = first_rid + !k in
      let id = Printf.sprintf "m%d" rid in
      let sess = st.sessions.(!k land 1) in
      let hits = (Serve.counters st.engine).Serve.cache_hits in
      let a = now () in
      st.lateness_ms <- ms !freed a :: st.lateness_ms;
      open_block sess id r;
      let sa = now () in
      Serve.feed sess ".";
      let sb = now () in
      st.busy_us <- st.busy_us +. (ms a sb *. 1e3);
      if traced then Trace.record st.sp ~rid ~parent:"request" "serve.submit" sa sb;
      let rc =
        {
          rid;
          id;
          req = r;
          due = a;
          hit = (Serve.counters st.engine).Serve.cache_hits > hits;
          submit_us = Int64.to_float (Int64.sub sb sa) /. 1e3;
          tick_us = 0.0;
          reply = "";
          replied = 0L;
        }
      in
      Hashtbl.replace pending id rc;
      incr outstanding;
      queue := !queue @ [ id ];
      incr k;
      collect sb;
      st.depth_max <- max st.depth_max (Serve.inflight st.engine)
    end
    else if Serve.inflight st.engine > 0 then begin
      let front = match !queue with x :: rest -> queue := rest; Some x | [] -> None in
      let a = now () in
      ignore (Serve.tick st.engine);
      let b = now () in
      st.busy_us <- st.busy_us +. (ms a b *. 1e3);
      (match front with
      | Some id when traced ->
          Option.iter
            (fun (rc : record) ->
              Trace.record st.sp ~rid:rc.rid ~parent:"request" "serve.tick" a b;
              rc.tick_us <- rc.tick_us +. (Int64.to_float (Int64.sub b a) /. 1e3))
            (Hashtbl.find_opt pending id)
      | _ -> ());
      (* Still pending after its slice: requeued at the back. *)
      (match front with
      | Some id when Hashtbl.mem pending id -> queue := !queue @ [ id ]
      | _ -> ());
      collect b
    end
    else begin
      collect (now ());
      (* Nothing in flight and no reply for these: lost, so failed. *)
      if !outstanding > 0 then begin
        Hashtbl.iter
          (fun id _ ->
            st.attempted <- st.attempted + 1;
            st.failed <- st.failed + 1;
            Printf.eprintf "%s: no reply to %s\n%!" st.bname id)
          pending;
        Hashtbl.reset pending;
        outstanding := 0
      end
    end
  done;
  st.phase_us <- st.phase_us +. (ms t_start (now ()) *. 1e3);
  first_rid + !k

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = Cold | Hot | Mixed

let workload_of_string = function
  | "serve-cold" -> Some Cold
  | "serve-hot" -> Some Hot
  | "serve-mixed" -> Some Mixed
  | _ -> None

(* What a daemon does before it takes traffic: create both engines and,
   on the warmed workloads, fill their caches. *)
let setup ~traced wl seed =
  let states = Array.map (new_state ~traced) backends in
  (match wl with
  | Cold -> ()
  | Hot -> Array.iter (fun st -> warm st (Programs.hot_programs seed)) states
  | Mixed ->
      let s = Programs.mixed_stream seed ~phase:0 in
      Array.iter
        (fun st ->
          warm st s.Programs.sets.Programs.short_hot;
          warm st s.Programs.sets.Programs.long)
        states);
  states

(* One timed phase of [seconds] over both backends. *)
let phase ~traced wl seed ~phase ~seconds ~first_rid (states : bstate array) =
  Array.iter mark_cache states;
  match wl with
  | Cold ->
      closed_loop ~traced ~seconds ~granule:Programs.cold_block_len ~first_rid states
        (Programs.cold_stream seed ~phase)
  | Hot ->
      let set = Programs.hot_programs seed in
      let rng = Programs.rng_for seed (30 + phase) in
      let i = ref (-1) in
      closed_loop ~traced ~seconds ~granule:(Array.length set) ~first_rid states
        (fun () ->
          incr i;
          (* A fresh seeded permutation per pass over the set. *)
          if !i mod Array.length set = 0 then Programs.shuffle rng set;
          set.(!i mod Array.length set))
  | Mixed ->
      let half = seconds /. 2.0 in
      let stream = Programs.mixed_stream seed ~phase in
      let count = max window (int_of_float (half *. float_of_int mixed_prepared_per_s)) in
      let reqs = Array.init count (fun _ -> stream.Programs.next ()) in
      Array.fold_left
        (fun rid st ->
          window_loop ~traced ~seconds:half ~granule:Programs.mixed_block_len
            ~first_rid:rid st reqs)
        first_rid states

(* End-to-end: a request's latency percentiles, the mean of the two
   backends' (each input goes to both, so they weigh alike; pooling the
   samples instead would put the median in the gap between the backends'
   clusters), and requests answered per second of engine time. On
   serve-mixed only the short requests expected to answer [ok] count. *)
let end_to_end (states : bstate array) =
  let both f =
    Array.fold_left (fun a st -> a +. f st.lat_ms) 0.0 states
    /. float_of_int (Array.length states)
  in
  let busy_s = Array.fold_left (fun a st -> a +. st.busy_us) 0.0 states /. 1e6 in
  let answered = Array.fold_left (fun a st -> a + List.length st.lat_ms) 0 states in
  [
    m "p50_ms" "ms" (both p50);
    m "p99_ms" "ms" (both p99);
    m "ops_per_s" "1/s" (float_of_int answered /. busy_s);
  ]

let cache_hit_ratio st =
  let c = Serve.counters st.engine in
  ratio (c.Serve.cache_hits - st.hits0)
    (c.Serve.cache_hits - st.hits0 + c.Serve.cache_misses - st.misses0)

let reply_kinds =
  [ "ok"; "exn"; "quota:heap"; "quota:stack"; "quota:fuel"; "timeout";
    "overloaded"; "evicted"; "crash" ]

let reply_kind reply =
  match String.split_on_char ' ' reply with
  | "ok" :: _ -> "ok"
  | "err" :: _ :: k :: _ -> k
  | _ -> "?"

let metric_name s = String.map (function ':' -> '_' | c -> c) s

(* The traced run's per-layer numbers for one backend. [untraced] is the
   same backend's p50 from the untraced phase of this run. *)
let layer_metrics st ~untraced_p50 ~mismatches =
  let records = List.rev st.records in
  let cfg = Serve.config st.engine in
  let cache = Replay.new_cache () in
  (* Prime the replay cache with everything the daemon had compiled
     before the traced phase (the warm-up's front end), unrecorded. Its
     front-end layers count with the misses': on serve-hot the warm-up is
     the only place the front end runs. *)
  let quiet = Trace.create ~on:false in
  let warm_src = Hashtbl.create 64 in
  let primed =
    List.filter_map
      (fun rc ->
        if rc.hit && not (Hashtbl.mem warm_src rc.req.Programs.src) then begin
          Hashtbl.replace warm_src rc.req.Programs.src ();
          Some
            (snd (Replay.run quiet ~rid:0 ~cfg ~cache ~hit:false ~id:"prime" rc.req))
        end
        else None)
      records
  in
  let layers =
    List.map
      (fun rc ->
        let reply, l =
          Replay.run st.sp ~rid:rc.rid ~cfg ~cache ~hit:rc.hit ~id:rc.id rc.req
        in
        if not (Replay.agrees ~serve:rc.reply ~replay:reply) then begin
          incr mismatches;
          if !mismatches <= 5 then
            Printf.eprintf "%s: replay disagrees for %s\n  serve:  %s\n  replay: %s\n%!"
              st.bname rc.id rc.reply reply
        end;
        (rc, l))
      records
  in
  let ls = List.map snd layers in
  (* Front-end layers: the misses' and the warm-up's. *)
  let opt f = List.filter_map f (ls @ primed) in
  let per f = List.map (fun (l : Replay.layers) -> float_of_int (f l)) ls in
  let stat f = mean (per (fun l -> f l.Replay.stats)) in
  let serve_us =
    List.fold_left (fun acc (rc, _) -> acc +. rc.submit_us +. rc.tick_us) 0.0 layers
  in
  let replay_us =
    List.fold_left (fun acc (_, l) -> acc +. Replay.total_us l) 0.0 layers
  in
  let queue_wait =
    List.map
      (fun (rc, l) -> ms rc.due rc.replied -. (Replay.total_us l /. 1e3))
      layers
  in
  let traced_p50 = p50 st.lat_ms in
  let p = st.bname ^ "." in
  let kinds = List.map (fun (rc, _) -> reply_kind rc.reply) layers in
  [
    m (p ^ "lang.parse_us.p50") "us" (p50 (opt (fun l -> l.Replay.parse_us)));
    m (p ^ "lang.parse_us.p99") "us" (p99 (opt (fun l -> l.Replay.parse_us)));
    m (p ^ "lang.source_bytes") "bytes"
      (mean (opt (fun l ->
           Option.map (fun _ -> float_of_int l.Replay.source_bytes) l.Replay.parse_us)));
    m (p ^ "resolve.expr_us") "us" (p50 (opt (fun l -> l.Replay.resolve_us)));
    m (p ^ "resolve.nodes") "count"
      (mean (opt (fun l ->
           Option.map (fun _ -> float_of_int l.Replay.resolve_nodes) l.Replay.resolve_us)));
    m (p ^ "machine.setup_us") "us" (p50 (List.map (fun l -> l.Replay.setup_us) ls));
    m (p ^ "machine.setup_cells") "count" (mean (per (fun l -> l.Replay.setup_cells)));
    m (p ^ "machine.run_us") "us" (p50 (List.map (fun l -> l.Replay.run_us) ls));
    m (p ^ "machine.deep_us") "us"
      (p50 (List.filter_map
              (fun (l : Replay.layers) -> if l.deep_us > 0.0 then Some l.deep_us else None)
              ls));
    m (p ^ "machine.steps") "count" (stat (fun s -> s.Stats.steps));
    m (p ^ "machine.allocations") "count" (stat (fun s -> s.Stats.allocations));
    m (p ^ "machine.collections") "count" (stat (fun s -> s.Stats.collections));
    m (p ^ "machine.frames_trimmed") "count" (stat (fun s -> s.Stats.frames_trimmed));
    m (p ^ "machine.slices") "count" (mean (per (fun l -> l.Replay.slices)));
    m (p ^ "serve.tick_us.p50") "us" (p50 (Trace.durations st.sp "serve.tick"));
    m (p ^ "serve.tick_us.p99") "us" (p99 (Trace.durations st.sp "serve.tick"));
    m (p ^ "serve.tick_us.max") "us" (maximum (Trace.durations st.sp "serve.tick"));
    m (p ^ "serve.submit_us.p50") "us" (p50 (Trace.durations st.sp "serve.submit"));
    m (p ^ "serve.submit_us.p99") "us" (p99 (Trace.durations st.sp "serve.submit"));
    m (p ^ "serve.busy_share") "ratio" (serve_us /. st.phase_us);
    m (p ^ "serve.queue_depth_max") "count" (float_of_int st.depth_max);
    m (p ^ "serve.queue_wait_ms.p50") "ms" (p50 queue_wait);
    m (p ^ "serve.queue_wait_ms.p99") "ms" (p99 queue_wait);
    m (p ^ "serve.gen_lateness_ms") "ms" (p99 st.lateness_ms);
    m (p ^ "serve.cache_hit_ratio") "ratio" (cache_hit_ratio st);
    m (p ^ "serve.unaccounted_share") "ratio"
      (if serve_us > 0.0 then (serve_us -. replay_us) /. serve_us else 0.0);
    m (p ^ "serve.p50_ms") "ms" (p50 st.lat_ms);
    m (p ^ "serve.p99_ms") "ms" (p99 st.lat_ms);
    m (p ^ "serve.rps") "1/s"
      (float_of_int (List.length st.lat_ms) /. (st.busy_us /. 1e6));
    m (p ^ "trace.overhead_share") "ratio"
      (if untraced_p50 > 0.0 then (traced_p50 /. untraced_p50) -. 1.0 else 0.0);
  ]
  @ List.map
      (fun k ->
        m (p ^ "serve.replies." ^ metric_name k) "count"
          (float_of_int (List.length (List.filter (String.equal k) kinds))))
      reply_kinds
  @
  if st.bname <> "bytecode" then []
  else
    let ic_hits = stat (fun s -> s.Stats.ic_hits) in
    let ic_all = ic_hits +. stat (fun s -> s.Stats.ic_misses) in
    [
      m "bytecode.compile_us" "us" (p50 (opt (fun l -> l.Replay.compile_us)));
      m "bytecode.code_words" "count"
        (mean (opt (fun l ->
             Option.map (fun _ -> float_of_int l.Replay.code_words) l.Replay.compile_us)));
      m "bytecode.machine.dispatches" "count" (stat (fun s -> s.Stats.bc_dispatches));
      m "bytecode.machine.ic_hit_ratio" "ratio"
        (if ic_all > 0.0 then ic_hits /. ic_all else 0.0);
    ]

let totals (states : bstate array) =
  Array.fold_left (fun (a, f) st -> (a + st.attempted, f + st.failed)) (0, 0) states

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let run wl ~seed ~seconds ~trace =
  if not trace then begin
    let states = setup ~traced:false wl seed in
    ignore (phase ~traced:false wl seed ~phase:0 ~seconds ~first_rid:0 states);
    let attempted, failed = totals states in
    { correct = failed = 0; attempted; failed; metrics = end_to_end states }
  end
  else begin
    (* Half the time untraced, half traced, on identical inputs and
       fresh engines; then the traced requests are replayed layer by
       layer. *)
    let half = seconds /. 2.0 in
    let untraced, (attempted0, failed0) =
      let plain = setup ~traced:false wl seed in
      ignore (phase ~traced:false wl seed ~phase:0 ~seconds:half ~first_rid:0 plain);
      (Array.map (fun st -> p50 st.lat_ms) plain, totals plain)
    in
    (* The untraced engines and their caches are garbage now; collect
       them so the traced half runs on the same live heap. *)
    Gc.full_major ();
    let states = setup ~traced:true wl seed in
    ignore (phase ~traced:true wl seed ~phase:0 ~seconds:half ~first_rid:0 states);
    let mismatches = ref 0 in
    let metrics =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun i st ->
                layer_metrics st ~untraced_p50:untraced.(i) ~mismatches)
              states))
    in
    let attempted1, failed1 = totals states in
    let attempted = attempted0 + attempted1 in
    let failed = failed0 + failed1 + !mismatches in
    { correct = failed = 0; attempted; failed; metrics }
  end
