(* The benchmark's own seeded request generator.

   Serve inputs are built from fixed templates here, never from the
   library's term generator, so a change to that generator cannot change
   what the serve workloads send. Every request carries its expected
   outcome: a closed-form value computed by the template, an exception
   set computed untimed by the denotational semantics, or (for the
   killers) the error kind the daemon must answer. *)

open Imprecise

type expect =
  | Value of string  (** The deep value exactly as an [ok] reply prints it. *)
  | Raises of Exn.t list
      (** Members of the exception set; the reply may carry any one. *)
  | Kind of string  (** A killer's [err] kind, e.g. ["quota:heap"]. *)

type cls =
  | Cold  (** Distinct source: the compiled-program cache misses. *)
  | Hot  (** Repeated source, compiled during the warm-up. *)
  | Long  (** Repeated source that needs many 4096-step slices. *)
  | Killer  (** One of the five requests that breach a defence. *)

type req = {
  label : string;  (** Template name, for diagnostics. *)
  opts : string;  (** Quota options on the [eval] line. *)
  src : string;
  expect : expect;
  cls : cls;
}

(* Serve's own parse: a bare expression first, else a whole program. *)
let parse src =
  try Prelude.wrap (Parser.parse_expr src)
  with Parser.Error _ as first -> (
    try Prelude.wrap_program (Parser.parse_program src)
    with Parser.Error _ -> raise first)

let flat s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* The reference for templates without a closed form: the denotational
   semantics, run untimed with enough fuel for every template here. *)
let denot_expect src =
  let cfg = { Denot.default_config with Denot.fuel = 50_000_000 } in
  match Denot.run_deep ~config:cfg ~depth:64 (parse src) with
  | Value.DBad (Exn_set.Finite s) -> Raises (Exn.Set.elements s)
  | Value.DBad Exn_set.All -> failwith ("reference diverged: " ^ src)
  | d -> Value (flat (Fmt.str "%a" Value.pp_deep d))

let int_value n = Value (string_of_int n)

let reply_matches ~id expect reply =
  match expect with
  | Value v -> String.equal reply (Printf.sprintf "ok %s %s" id v)
  | Raises es ->
      List.exists
        (fun e ->
          String.equal reply
            (flat
               (Fmt.str "err %s exn class=%s %a" id (Exn.class_name e) Exn.pp
                  e)))
        es
  | Kind k ->
      let p = Printf.sprintf "err %s %s" id k in
      let n = String.length p in
      String.length reply >= n
      && String.sub reply 0 n = p
      && (String.length reply = n || reply.[n] = ' ')

(* ------------------------------------------------------------------ *)
(* Templates                                                           *)
(* ------------------------------------------------------------------ *)

let range rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* The point a fraction [f] of the way from [lo] to [hi] on a log
   scale. Work sizes are placed at fixed fractions, not drawn freely,
   so every seed gets the same spread of sizes and the workload's cost
   does not depend on the seed; the seed picks which program gets which
   size, and every other constant. *)
let scale ~lo ~hi f =
  let l = log (float_of_int lo) and h = log (float_of_int hi) in
  int_of_float (exp (l +. (f *. (h -. l))))

(* [n] fractions, the midpoints of [n] equal strata, in seeded order. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let strata rng n =
  let a =
    Array.init n (fun i -> (float_of_int i +. 0.5) /. float_of_int n)
  in
  shuffle rng a;
  a
let sum_to n = n * (n + 1) / 2

let rec fold_range lo hi f acc =
  if lo > hi then acc else fold_range (lo + 1) hi f (f acc lo)

(* Declared exceptions come from this fixed set: the global exception
   registry only grows, so fresh names per request would leak. *)
let declared = [| "BenchA"; "BenchB"; "BenchC"; "BenchD" |]

(* Small cold templates. [u] is unique per request, so no two sources
   of one stream are equal and the cache can never hit. *)
let n_small_kinds = 9

let small_cold rng ~kind u =
  let mk label src expect = { label; opts = ""; src; expect; cls = Cold } in
  match kind with
  | 0 ->
      let a = range rng 1 9 and n = range rng 5 40 in
      mk "sum-map"
        (Printf.sprintf "sum (map (\\x -> x * %d) (enumFromTo 1 %d)) + %d" a n
           u)
        (int_value ((a * sum_to n) + u))
  | 1 ->
      let b = range rng 2 9 and n = range rng 10 60 in
      let c = Random.State.int rng b in
      mk "filter-count"
        (Printf.sprintf
           "length (filter (\\x -> x %% %d == %d) (enumFromTo 1 %d)) + %d" b c
           n u)
        (int_value
           (fold_range 1 n (fun acc x -> if x mod b = c then acc + 1 else acc) u))
  | 2 ->
      let a = range rng 2 5 and b = range rng 0 9 in
      let f x = (x * a) + b in
      mk "let-chain"
        (Printf.sprintf "let f = \\x -> x * %d + %d in f (f (f %d))" a b u)
        (int_value (f (f (f u))))
  | 3 ->
      let d = range rng 1 5 and s = range rng 0 9 and n = range rng 3 30 in
      mk "iterate"
        (Printf.sprintf
           "foldr (\\x acc -> x + acc) %d (take %d (iterate (\\y -> y + %d) %d))"
           u n d s)
        (int_value (u + (n * s) + (d * n * (n - 1) / 2)))
  | 4 ->
      let n = range rng 3 12 and a = range rng 2 9 in
      let k = range rng 1 n in
      mk "lookup"
        (Printf.sprintf
           "case lookupInt %d (zip (enumFromTo 1 %d) (map (\\x -> x * %d) \
            (enumFromTo 1 %d))) of { Nothing -> %d; Just v -> v + %d }"
           k n a n u u)
        (int_value ((k * a) + u))
  | 5 ->
      (* Two raise sites in one expression: the reply may name either. *)
      let src = Printf.sprintf "(%d / (7 - 7)) + error \"c%d\"" u u in
      mk "imprecise" src (denot_expect src)
  | 6 ->
      let name = declared.(Random.State.int rng (Array.length declared)) in
      let k = range rng 0 (2 * u) in
      let src =
        Printf.sprintf
          "exception %s of Int;\n\
           f x = if x > %d then raise (%s x) else x * 2;\n\
           main = f %d;"
          name k name u
      in
      mk "declared" src (denot_expect src)
  | 7 ->
      let n = range rng 3 20 in
      let src =
        Printf.sprintf "head (filter (\\x -> x > %d) (enumFromTo 1 %d)) + %d" n
          n u
      in
      mk "head-nil" src (denot_expect src)
  | _ ->
      let n = range rng 4 9 in
      let src =
        Printf.sprintf "take 3 (map (\\x -> (x, x * %d)) (enumFromTo 1 %d))" u n
      in
      mk "pairs" src (denot_expect src)

(* The multi-KB tail: a long list literal (about 4.5 KB), or a long
   chain of top-level declarations (about 3.5 KB). Both stress parse and
   resolve, not the machine. Sizes stay in a narrow band, so the cold
   p99, which falls among these requests, measures one size class. *)
let large_cold rng ~list ~f u =
  if list then begin
    let m = scale ~lo:900 ~hi:1100 f in
    let xs = List.init m (fun _ -> range rng 100 999) in
    {
      label = "big-list";
      opts = "";
      src =
        Printf.sprintf "sum [%s] + %d"
          (String.concat ", " (List.map string_of_int xs))
          u;
      expect = int_value (List.fold_left ( + ) u xs);
      cls = Cold;
    }
  end
  else begin
    let m = scale ~lo:150 ~hi:180 f in
    let a = Array.init (m + 1) (fun _ -> range rng 1 99) in
    let b = Buffer.create (m * 24) in
    Printf.bprintf b "g0 x = x + %d;\n" a.(0);
    for i = 1 to m do
      Printf.bprintf b "g%d x = g%d x + %d;\n" i (i - 1) a.(i)
    done;
    Printf.bprintf b "main = g%d %d;" m u;
    {
      label = "decl-chain";
      opts = "";
      src = Buffer.contents b;
      expect = int_value (Array.fold_left ( + ) u a);
      cls = Cold;
    }
  end

(* Cold requests come in seeded blocks of 20: two of each small
   template, one more small one, and one from the multi-KB tail. The
   tail's sizes follow a low-discrepancy sequence from a seeded start,
   so any run covers the size range evenly. *)
let cold_block_len = (2 * n_small_kinds) + 2

let cold_blocks rng =
  let start = Random.State.float rng 1.0 in
  let nlarge = ref 0 in
  let block () =
    let kinds =
      Array.append
        (Array.init (2 * n_small_kinds) (fun i -> Some (i mod n_small_kinds)))
        [| Some (Random.State.int rng n_small_kinds); None |]
    in
    shuffle rng kinds;
    kinds
  in
  let cur = ref [||] and pos = ref 0 in
  fun u ->
    if !pos >= Array.length !cur then begin
      cur := block ();
      pos := 0
    end;
    let k = !cur.(!pos) in
    incr pos;
    match k with
    | Some kind -> small_cold rng ~kind u
    | None ->
        incr nlarge;
        let f = Float.rem (start +. (float_of_int !nlarge *. 0.6180339887)) 1.0 in
        large_cold rng ~list:(!nlarge land 1 = 0) ~f u

(* Compute-heavy templates for the hot set, 10^4 to 3*10^5 machine
   steps, inside the daemon's default fuel, heap and stack quotas. *)
let sum_mod rng ~lo ~hi ~f =
  let a = range rng 1 6 and n = scale ~lo ~hi f in
  {
    label = "sum-mod";
    opts = "";
    src = Printf.sprintf "sum (map (\\x -> x * %d %% 7) (enumFromTo 1 %d))" a n;
    expect = int_value (fold_range 1 n (fun acc x -> acc + (x * a mod 7)) 0);
    cls = Hot;
  }

(* Insertion sort of a descending list: the work depends only on the
   length, whatever the seeded multiplier. *)
let sort_prefix rng ~lo ~hi ~f =
  let p = range rng 3 97 and n = scale ~lo ~hi f in
  {
    label = "sort";
    opts = "";
    src =
      Printf.sprintf
        "sum (take 5 (sortInt (map (\\x -> (%d - x) * %d) (enumFromTo 1 %d))))"
        n p n;
    expect = int_value (p * (0 + 1 + 2 + 3 + 4));
    cls = Hot;
  }

let strict_loop ~f =
  let n = scale ~lo:300 ~hi:9000 f in
  {
    label = "strict-loop";
    opts = "";
    src =
      Printf.sprintf
        "let rec go n acc = if n == 0 then acc else seq acc (go (n - 1) (acc \
         + n %% 3)) in go %d 0"
        n;
    expect = int_value (fold_range 1 n (fun acc x -> acc + (x mod 3)) 0);
    cls = Hot;
  }

(* The raise happens thousands of frames deep, so the reply exercises
   the paper's trim-to-handler path (Section 3.3). *)
let deep_raise rng ~div ~f =
  if not div then begin
    let k = scale ~lo:150 ~hi:3400 f + range rng 0 3 in
    let n = k + range rng 1 600 in
    {
      label = "deep-error";
      opts = "";
      src =
        Printf.sprintf
          "foldr (\\x acc -> if x == %d then error \"deep%d\" else x + acc) 0 \
           (enumFromTo 1 %d)"
          k k n;
      expect = Raises [ Exn.User_error (Printf.sprintf "deep%d" k) ];
      cls = Hot;
    }
  end
  else begin
    let n = scale ~lo:150 ~hi:3000 f in
    let k = (n * 3 / 4) + range rng 0 3 in
    {
      label = "deep-div";
      opts = "";
      src =
        Printf.sprintf
          "sum (map (\\x -> if x == %d then 1 / 0 else x %% 5) (enumFromTo 1 \
           %d))"
          k n;
      expect = Raises [ Exn.Divide_by_zero ];
      cls = Hot;
    }
  end

(* The serve-hot set: 25 programs, each template's copies spread over
   its size range at fixed strata, in seeded order; six raise. An odd
   count puts the median inside one program's cluster of latencies, not
   in the gap between two. *)
let hot_set rng =
  let group n mk = Array.map (fun f -> mk ~f) (strata rng n) in
  let set =
    Array.concat
      [
        group 7 (sum_mod rng ~lo:150 ~hi:3500);
        group 6 (sum_mod rng ~lo:150 ~hi:1500);
        group 3 (sort_prefix rng ~lo:40 ~hi:200);
        group 3 strict_loop;
        group 3 (deep_raise rng ~div:false);
        group 3 (deep_raise rng ~div:true);
      ]
  in
  shuffle rng set;
  set

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

(* Table S's killers, each breaching exactly one defence. The spinner's
   timeout is a few ms so it is answered while other tenants run. *)
let killers =
  [|
    { label = "heap-bomb"; opts = "heap=2000"; src = "length (replicate 100000 1)";
      expect = Kind "quota:heap"; cls = Killer };
    { label = "stack-bomb"; opts = "stack=500 fuel=5000000 heap=2000000";
      src = "sum (enumFromTo 1 20000)"; expect = Kind "quota:stack"; cls = Killer };
    { label = "fuel-burner"; opts = "fuel=20000"; src = "sum (enumFromTo 1 200000)";
      expect = Kind "quota:fuel"; cls = Killer };
    { label = "black-hole"; opts = ""; src = "let rec black = black + 1 in black";
      expect = Kind "quota:fuel"; cls = Killer };
    { label = "spinner"; opts = "fuel=1000000000 timeout=4";
      src = "let rec go n = if n > 0 then go n else 0 in go 1";
      expect = Kind "timeout"; cls = Killer };
  |]

type mixed_inputs = {
  short_hot : req array;  (** Warmed short programs, 2k to 10k steps. *)
  long : req array;  (** Warmed programs of 25 to 75 slices. *)
}

let mixed_sets rng =
  let long r = { r with cls = Long } in
  {
    short_hot = Array.map (fun f -> sum_mod rng ~lo:30 ~hi:120 ~f) (strata rng 8);
    long =
      Array.concat
        [
          Array.map (fun f -> long (sum_mod rng ~lo:1500 ~hi:3500 ~f)) (strata rng 2);
          Array.map (fun f -> long (sort_prefix rng ~lo:120 ~hi:200 ~f)) (strata rng 2);
        ];
  }

(* The mix, per block of 89 requests: 60 hot short (each of the eight
   seven or eight times), 20 small cold ones, the 4 long ones and the
   five killers once each, in seeded order. The multi-KB cold tail is left to serve-cold: a
   30 ms front end on one request would set the mix's p99 alone. *)
let mixed_short_hot = 150
let mixed_cold = 20
let mixed_block_len = mixed_short_hot + mixed_cold + 4 + Array.length killers

let mixed_block rng sets cold_next =
  let b =
    Array.concat
      [
        Array.init mixed_short_hot (fun i -> `Fixed sets.short_hot.(i mod 8));
        Array.make mixed_cold `Cold;
        Array.map (fun r -> `Fixed r) sets.long;
        Array.map (fun k -> `Fixed k) killers;
      ]
  in
  shuffle rng b;
  Array.map (function `Fixed r -> r | `Cold -> cold_next ()) b

(* Whether a reply to this request counts toward the mixed latency
   percentiles: short requests expected to answer [ok]. *)
let short_ok r =
  match (r.cls, r.expect) with
  | (Hot | Cold), Value _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

let rng_for seed tag = Random.State.make [| seed; tag; 0x5eb |]

(* A seed's cold stream for one timed phase. [u] starts past any
   constant a template uses and past every earlier phase's, so no
   source repeats within a run. *)
let first_u seed ~phase = 1000 + (seed land 0xfff) + (phase * 100_000)

let cold_stream seed ~phase =
  let rng = rng_for seed (10 + phase) in
  let next = cold_blocks rng in
  let u = ref (first_u seed ~phase) in
  fun () ->
    incr u;
    next !u

let hot_programs seed = hot_set (rng_for seed 2)

type mixed_stream = { sets : mixed_inputs; next : unit -> req }

(* The warmed sets come from the seed alone; the order of each phase's
   requests from the seed and the phase, one shuffled block of the mix
   after another. *)
let mixed_stream seed ~phase =
  let sets = mixed_sets (rng_for seed 3) in
  let rng = rng_for seed (20 + phase) in
  let cold_rng = rng_for seed (40 + phase) in
  let u = ref (first_u seed ~phase) in
  let cold_next () =
    incr u;
    small_cold cold_rng ~kind:(!u mod n_small_kinds) !u
  in
  let pending = Queue.create () in
  {
    sets;
    next =
      (fun () ->
        if Queue.is_empty pending then
          Array.iter (fun r -> Queue.push r pending) (mixed_block rng sets cold_next);
        Queue.pop pending);
  }

(* A stable text rendering of a request, for the determinism self-test. *)
let describe r =
  let e =
    match r.expect with
    | Value v -> "value " ^ v
    | Raises es -> Fmt.str "raises %a" Fmt.(list ~sep:(any "|") Exn.pp) es
    | Kind k -> "kind " ^ k
  in
  Printf.sprintf "%s [%s] %s => %s" r.label r.opts (String.escaped r.src) e
