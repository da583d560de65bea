(* The fuzz workload: the development loop's unit. Campaigns of
   [Fuzz.Engine.run] with a fixed explore-run count, persistence off,
   replaying the benchmark's own snapshot of the corpus, repeated until
   the run's time is up. The replay phase (ended by the engine's
   "replayed" log line) is the set-up; runs per second are counted over
   the explore phase only.

   The traced run makes one campaign twice (untraced and traced), then,
   since the engine's own inputs stay inside it, re-executes seeded
   terms from the same generators through each layer the campaign
   drives: generation, the differential checks, the metamorphic
   oracles, every evaluator, and the optimiser with lint on and off. *)

open Imprecise
open Report

let corpus_dir = Filename.concat "perfbench" "corpus"

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

type campaign = {
  setup_s : float;
  explore_s : float;
  explore_runs : int;
  report : Fuzz.report;
}

let campaign ~seed ~explore =
  let dict = List.length (Corpus.dictionary ()) in
  let files, errors = Corpus.load_dir corpus_dir in
  if files = [] || errors <> [] then
    failwith ("missing or unreadable corpus snapshot in " ^ corpus_dir);
  let replayed = ref None in
  let log line = if starts_with "replayed" line then replayed := Some (now ()) in
  let t0 = now () in
  let report =
    Fuzz.run
      {
        Fuzz.default_config with
        Fuzz.seed;
        runs = dict + List.length files + explore;
        corpus_dir = Some corpus_dir;
        persist = false;
        log;
      }
  in
  let t1 = now () in
  let tr = match !replayed with Some t -> t | None -> t1 in
  {
    setup_s = ms t0 tr /. 1e3;
    explore_s = ms tr t1 /. 1e3;
    explore_runs = report.Fuzz.total_runs - report.Fuzz.replayed;
    report;
  }

(* Violations of one campaign: every distinct check's occurrences,
   unparsable corpus files and unwitnessed non-laws. *)
let violations (r : Fuzz.report) =
  List.iter
    (fun (c : Fuzz.crash) ->
      Printf.eprintf "fuzz: violation %s on %s: %s\n%!" c.Fuzz.check
        c.Fuzz.entry.Corpus.name c.Fuzz.detail)
    r.Fuzz.crashes;
  List.fold_left (fun a (c : Fuzz.crash) -> a + c.Fuzz.occurrences) 0 r.Fuzz.crashes
  + List.length r.Fuzz.corpus_errors
  + List.length (Metamorph.unwitnessed r.Fuzz.meta)

(* Campaign seeds are fixed, not drawn from the run's seed: every run
   explores the same inputs, so runs per second compare like with like
   (the layer replay below still takes the run's seed). *)
let campaign_seed k = k

let runs_per_s cs =
  let runs = List.fold_left (fun a c -> a + c.explore_runs) 0 cs in
  let secs = List.fold_left (fun a c -> a +. c.explore_s) 0.0 cs in
  float_of_int runs /. secs

(* The latency of the loop's unit as a campaign sees it: explore time
   per explore run. Runs are not timed one by one (they happen inside
   the engine), so the percentiles are over the run's campaigns. *)
let ms_per_run c = c.explore_s *. 1e3 /. float_of_int c.explore_runs

(* A campaign of this many explore runs takes about four and a half
   seconds with its set-up on a 2-core x86-64 container; a run makes as
   many campaigns as fit in its seconds, counted in advance so every run
   does the same work (five in a 24-second run, an odd count, so the
   median is one campaign's figure). *)
let explore_runs = 60
let campaign_nominal_s = 4.5

let campaigns ~seconds ~explore =
  let n = max 1 (int_of_float (seconds /. campaign_nominal_s)) in
  List.init n (fun k ->
      let c = campaign ~seed:(campaign_seed k) ~explore in
      Printf.eprintf "fuzz: campaign %d: set-up %.3f s, %d explore runs in %.3f s\n%!" k
        c.setup_s c.explore_runs c.explore_s;
      c)

(* ------------------------------------------------------------------ *)
(* Layer replay                                                        *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = now () in
  let x = f () in
  (x, ms t0 (now ()))

let layer_metrics ~seed ~per_kind =
  let rng = Random.State.make [| seed; 0xf22 |] in
  let vc = Differ.default_vconfig in
  let gen_times = Hashtbl.create 4 in
  let nodes = ref [] in
  let gen name g =
    List.init per_kind (fun _ ->
        let e, t = time (fun () -> QCheck2.Gen.generate1 ~rand:rng g) in
        Hashtbl.replace gen_times name
          (t :: Option.value ~default:[] (Hashtbl.find_opt gen_times name));
        nodes := float_of_int (Syntax.size e) :: !nodes;
        e)
  in
  let ints = gen "int" (Gen.gen_int ()) in
  let lists = gen "list" (Gen.gen_list ()) in
  let ios = gen "io" (Gen.gen_io ()) in
  let concs = gen "conc" (Gen.gen_conc ()) in
  let pure = ints @ lists in
  let each terms f = List.map (fun e -> snd (time (fun () -> ignore (f e)))) terms in
  (* Violations seen here are reported, not counted as failed: the
     workload's operations are the campaign's runs, and these terms are
     not the campaign's. *)
  let violations = ref 0 in
  let count (r : Differ.result) =
    List.iter
      (fun v -> incr violations; Fmt.epr "fuzz layer replay: %a@." Differ.pp_violation v)
      r.Differ.violations
  in
  let check_pure = each pure (fun e -> count (Differ.check_pure vc e)) in
  let check_io =
    each ios (fun e -> count (Differ.check_io vc ~seed e))
  in
  ignore (each concs (fun e -> count (Differ.check_conc vc ~seed e)));
  let metamorph =
    each pure (fun e ->
        List.iter
          (fun v -> incr violations; Fmt.epr "fuzz layer replay: %a@." Metamorph.pp_violation v)
          (Metamorph.check_pure (Metamorph.create ()) e))
  in
  let wrap = List.map Prelude.wrap in
  let dcfg = { Denot.default_config with Denot.fuel = vc.Differ.denot_fuel } in
  let mcfg =
    { Machine.default_config with
      Machine.fuel = vc.Differ.machine_fuel; blackhole_nontermination = true }
  in
  let rcfg =
    { Machine_ref.default_config with
      Machine_ref.fuel = vc.Differ.machine_fuel; blackhole_nontermination = true }
  in
  let depth = vc.Differ.depth and steps = vc.Differ.io_max_steps in
  let pw = wrap pure and iw = wrap ios and cw = wrap concs in
  let evals =
    [
      ("denot", each pw (fun w -> Denot.run_deep ~config:dcfg ~depth w));
      ("slot", each pw (fun w -> Machine.run_deep ~config:mcfg ~depth w));
      ("ref", each pw (fun w -> Machine_ref.run_deep ~config:rcfg ~depth w));
      ("bytecode", each pw (fun w -> Bytecode.run_deep ~config:mcfg ~depth w));
      ("fixed",
       each pw (fun w ->
           Fixed.run_deep ~fuel:vc.Differ.fixed_fuel ~depth Fixed.Left_to_right w));
      ("iosem",
       each iw (fun w ->
           Io.run ~config:dcfg ~oracle:(Oracle.first ()) ~input:"" ~max_steps:steps w));
      ("machine_io",
       each iw (fun w -> Machine_io.run ~config:mcfg ~input:"" ~max_transitions:steps w));
      ("conc",
       each (iw @ cw) (fun w ->
           Conc.run ~config:dcfg ~oracle:(Oracle.first ()) ~input:"" ~max_steps:steps w));
      ("machine_conc",
       each (iw @ cw) (fun w ->
           Machine_conc.run ~config:mcfg ~input:"" ~max_transitions:steps w));
    ]
  in
  let optimize lint =
    each pw (fun w -> Pipeline.optimize ~lint Pipeline.Imprecise w)
  in
  let opt_on = optimize true and opt_off = optimize false in
  List.map
    (fun k ->
      m ("gen.term_ms." ^ k) "ms"
        (mean (Option.value ~default:[] (Hashtbl.find_opt gen_times k))))
    [ "int"; "list"; "io"; "conc" ]
  @ [
      m "gen.term_nodes" "count" (mean !nodes);
      m "fuzz.check_pure_ms" "ms" (mean check_pure);
      m "fuzz.check_io_ms" "ms" (mean check_io);
      m "fuzz.metamorph_ms" "ms" (mean metamorph);
    ]
  @ List.map (fun (k, ts) -> m ("fuzz.eval." ^ k ^ "_ms") "ms" (mean ts)) evals
  @ [
      m "transform.optimize_ms.lint_on" "ms" (mean opt_on);
      m "transform.optimize_ms.lint_off" "ms" (mean opt_off);
      m "fuzz.replay_violations" "count" (float_of_int !violations);
    ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let run ~seed ~seconds ~trace ~tiny =
  let explore = if tiny then 4 else explore_runs in
  if not trace then begin
    let cs = campaigns ~seconds ~explore in
    let failed = List.fold_left (fun a c -> a + violations c.report) 0 cs in
    {
      correct = failed = 0;
      attempted = List.fold_left (fun a c -> a + c.report.Fuzz.total_runs) 0 cs;
      failed;
      metrics =
        [
          m "setup_s" "s" (p50 (List.map (fun c -> c.setup_s) cs));
          m "p50_ms" "ms" (p50 (List.map ms_per_run cs));
          m "p99_ms" "ms" (p99 (List.map ms_per_run cs));
          m "ops_per_s" "1/s" (runs_per_s cs);
        ];
    }
  end
  else begin
    (* The same campaign twice. The traced run adds nothing inside the
       engine (its phases are timed by the log line either way), so the
       ratio of explore rates is the overhead of tracing, which is nil by
       construction, read against the run-to-run noise. *)
    let untraced = campaign ~seed:(campaign_seed 0) ~explore in
    let traced = campaign ~seed:(campaign_seed 0) ~explore in
    let layers = layer_metrics ~seed ~per_kind:(if tiny then 1 else 12) in
    let failed = violations untraced.report + violations traced.report in
    let r = traced.report in
    {
      correct = failed = 0;
      attempted = untraced.report.Fuzz.total_runs + r.Fuzz.total_runs;
      failed;
      metrics =
        layers
        @ [
            m "fuzz.coverage_kinds" "count" (float_of_int (Coverage.kinds_hit r.Fuzz.coverage));
            m "fuzz.retained" "count" (float_of_int r.Fuzz.retained);
            m "fuzz.trace.overhead_share" "ratio"
              ((runs_per_s [ untraced ] /. runs_per_s [ traced ]) -. 1.0);
          ];
    }
  end
