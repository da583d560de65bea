(* The traced run's layer replay: one serve request re-executed through
   each layer's public functions, in the order the daemon runs them,
   with a span around every call. The replay mirrors the daemon's
   request path exactly (cache hit or miss, quotas, 4096-step slices,
   timeout checks at slice boundaries, reply classification), so its
   reply must equal the daemon's, and its layer times account for the
   daemon's span time. *)

open Imprecise

let now = Monotonic_clock.now
let us a b = Int64.to_float (Int64.sub b a) /. 1e3

type layers = {
  mutable parse_us : float option;  (** [None] on a cache hit. *)
  mutable source_bytes : int;
  mutable resolve_us : float option;
  mutable resolve_nodes : int;
  mutable compile_us : float option;  (** Bytecode backend, cache miss. *)
  mutable code_words : int;
  mutable setup_us : float;
  mutable setup_cells : int;
      (** Cells allocated on creation plus the prelude letrec's bindings. *)
  mutable run_us : float;  (** Summed over slices. *)
  mutable deep_us : float;  (** Deep force plus reply printing. *)
  mutable slices : int;
  mutable stats : Stats.t;
}

let total_us l =
  let o = Option.value ~default:0.0 in
  o l.parse_us +. o l.resolve_us +. o l.compile_us +. l.setup_us +. l.run_us
  +. l.deep_us

type entry = {
  rx : Resolve.rexpr;
  mutable bc : Bytecode.program option;
  mutable last_used : int;
}

(* The replay's compiled-program cache, one per backend, bounded and
   evicted least-recently-used like the daemon's, so the replay carries
   no more live heap than the daemon did. *)
type cache = { tbl : (string, entry) Hashtbl.t; mutable clock : int }

let capacity = Serve.default_config.Serve.cache_capacity
let new_cache () = { tbl = Hashtbl.create 64; clock = 0 }

let touch c e =
  c.clock <- c.clock + 1;
  e.last_used <- c.clock

let insert c src e =
  if Hashtbl.length c.tbl >= capacity then begin
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, u) when u <= e.last_used -> acc
          | _ -> Some (k, e.last_used))
        c.tbl None
    in
    Option.iter (fun (k, _) -> Hashtbl.remove c.tbl k) victim
  end;
  touch c e;
  Hashtbl.replace c.tbl src e

type machine =
  | Slot of Machine.t * Machine.addr
  | Bc of Bytecode.t * Bytecode.addr

let m_stats = function Slot (m, _) -> Machine.stats m | Bc (m, _) -> Bytecode.stats m
let m_heap = function Slot (m, _) -> Machine.heap_size m | Bc (m, _) -> Bytecode.heap_size m

let flat = Programs.flat

(* Parse the [eval] line's options exactly as the daemon does; the
   benchmark only sends well-formed ones. *)
let opts_of (cfg : Serve.config) s =
  let fuel = ref cfg.Serve.fuel and heap = ref cfg.Serve.heap in
  let stack = ref cfg.Serve.stack and timeout = ref cfg.Serve.timeout_ms in
  List.iter
    (fun tok ->
      match String.split_on_char '=' tok with
      | [ "fuel"; v ] -> fuel := int_of_string v
      | [ "heap"; v ] -> heap := int_of_string v
      | [ "stack"; v ] -> stack := int_of_string v
      | [ "timeout"; v ] -> timeout := int_of_string v
      | _ -> invalid_arg ("unsupported option " ^ tok))
    (List.filter (( <> ) "") (String.split_on_char ' ' s));
  (!fuel, !heap, !stack, !timeout)

let span (sp : Trace.t) ~rid name t0 t1 = Trace.record sp ~rid ~parent:"replay" name t0 t1

(* Replay one request; returns the reply the daemon should have given
   and the per-layer costs. [hit] says whether the daemon's cache hit
   for this submission (read off its counters); on a hit only the
   machine layers run, as in the daemon. *)
let run (sp : Trace.t) ~rid ~(cfg : Serve.config) ~(cache : cache) ~hit ~id
    (r : Programs.req) =
  let l =
    {
      parse_us = None; source_bytes = String.length r.Programs.src;
      resolve_us = None; resolve_nodes = 0; compile_us = None; code_words = 0;
      setup_us = 0.0; setup_cells = 0; run_us = 0.0; deep_us = 0.0; slices = 0;
      stats = Stats.create ();
    }
  in
  let src = r.Programs.src in
  let entry =
    match Hashtbl.find_opt cache.tbl src with
    | Some e when hit ->
        touch cache e;
        e
    | _ ->
        let t0 = now () in
        let e = Programs.parse src in
        let t1 = now () in
        let rx = Resolve.expr e in
        let t2 = now () in
        span sp ~rid "lang.parse" t0 t1;
        span sp ~rid "resolve.expr" t1 t2;
        l.parse_us <- Some (us t0 t1);
        l.resolve_us <- Some (us t1 t2);
        l.resolve_nodes <- Resolve.count_nodes rx;
        let e = { rx; bc = None; last_used = 0 } in
        insert cache src e;
        e
  in
  let fuel, heap, stack, timeout_ms = opts_of cfg r.Programs.opts in
  let mcfg =
    { Machine.default_config with
      Machine.fuel; heap_limit = Some heap; stack_limit = Some stack }
  in
  let m =
    match cfg.Serve.backend with
    | Serve.Slot ->
        let t0 = now () in
        let m = Machine.create ~config:mcfg ~trace:(Obs.create ~on:false ()) () in
        let a = Machine.alloc_resolved m entry.rx in
        let t1 = now () in
        span sp ~rid "machine.setup" t0 t1;
        l.setup_us <- us t0 t1;
        Slot (m, a)
    | Serve.Bytecode ->
        let p =
          match entry.bc with
          | Some p -> p
          | None ->
              let t0 = now () in
              let p = Bytecode.compile entry.rx in
              let t1 = now () in
              span sp ~rid "bytecode.compile" t0 t1;
              l.compile_us <- Some (us t0 t1);
              l.code_words <- Bytecode.code_words p;
              entry.bc <- Some p;
              p
        in
        let t0 = now () in
        let m = Bytecode.create ~config:mcfg ~trace:(Obs.create ~on:false ()) p in
        let a = Bytecode.entry m in
        let t1 = now () in
        span sp ~rid "machine.setup" t0 t1;
        l.setup_us <- us t0 t1;
        Bc (m, a)
  in
  (* The machine must also allocate one cell per binding of the prelude
     letrec before the program's own work starts. *)
  l.setup_cells <-
    (m_heap m
    + match entry.rx with Resolve.RLetrec (bs, _) -> Array.length bs | _ -> 0);
  let arm () =
    let at_step = (m_stats m).Stats.steps + cfg.Serve.slice in
    match m with
    | Slot (m, _) -> Machine.inject_async m ~at_step Exn.Timeout
    | Bc (m, _) -> Bytecode.inject_async m ~at_step Exn.Timeout
  in
  let deadline =
    if timeout_ms <= 0 then Int64.max_int
    else Int64.add (now ()) (Int64.mul (Int64.of_int timeout_ms) 1_000_000L)
  in
  arm ();
  let rec slice () =
    let t0 = now () in
    let res =
      match m with
      | Slot (mm, a) -> Result.map ignore (Machine.force_catch mm a)
      | Bc (mm, a) -> Result.map ignore (Bytecode.force_catch mm a)
    in
    let t1 = now () in
    span sp ~rid "machine.run" t0 t1;
    l.run_us <- l.run_us +. us t0 t1;
    l.slices <- l.slices + 1;
    match res with
    | Ok () ->
        let t0 = now () in
        let d =
          match m with
          | Slot (mm, a) -> Machine.clear_async mm; Machine.deep ~depth:cfg.Serve.depth mm a
          | Bc (mm, a) -> Bytecode.clear_async mm; Bytecode.deep ~depth:cfg.Serve.depth mm a
        in
        let reply = flat (Fmt.str "ok %s %a" id Value.pp_deep d) in
        let t1 = now () in
        span sp ~rid "machine.deep" t0 t1;
        l.deep_us <- us t0 t1;
        reply
    | Error (Machine.Fail_async _) ->
        if now () >= deadline then
          Printf.sprintf "err %s timeout steps=%d" id (m_stats m).Stats.steps
        else begin
          arm ();
          slice ()
        end
    | Error Machine.Fail_diverged ->
        Printf.sprintf "err %s quota:fuel diverged-or-exhausted" id
    | Error (Machine.Fail_exn e) -> (
        let st = m_stats m in
        match e with
        | Exn.Heap_overflow when st.Stats.heap_overflows > 0 ->
            Printf.sprintf "err %s quota:heap cells=%d" id (m_heap m)
        | Exn.Stack_overflow_exn when st.Stats.stack_overflows > 0 ->
            Printf.sprintf "err %s quota:stack max_stack=%d" id st.Stats.max_stack
        | _ ->
            flat (Fmt.str "err %s exn class=%s %a" id (Exn.class_name e) Exn.pp e))
  in
  let reply = slice () in
  l.stats <- m_stats m;
  (reply, l)

(* A replayed reply agrees with the daemon's when the two are equal,
   except that a timeout's step count depends on the wall clock. *)
let agrees ~serve ~replay =
  let timeout_prefix s =
    match String.split_on_char ' ' s with
    | "err" :: id :: "timeout" :: _ -> Some id
    | _ -> None
  in
  String.equal serve replay
  || (match (timeout_prefix serve, timeout_prefix replay) with
     | Some a, Some b -> String.equal a b
     | _ -> false)
