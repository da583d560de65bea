(* Wall time per suite, summed over its test cases; the five slowest
   are printed to stderr at exit, so a drift in suite time shows in the
   change that causes it. *)
let suite_seconds : (string, float) Hashtbl.t = Hashtbl.create 64

let timed ((suite, cases) : unit Alcotest.test) : unit Alcotest.test =
  let add dt =
    let prev = Option.value ~default:0. (Hashtbl.find_opt suite_seconds suite) in
    Hashtbl.replace suite_seconds suite (prev +. dt)
  in
  ( suite,
    List.map
      (fun (name, speed, f) ->
        ( name,
          speed,
          fun () ->
            let t0 = Unix.gettimeofday () in
            Fun.protect
              ~finally:(fun () -> add (Unix.gettimeofday () -. t0))
              f ))
      cases )

let report_slowest () =
  let rows =
    Hashtbl.fold (fun suite s acc -> (suite, s) :: acc) suite_seconds []
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. rows in
  Printf.eprintf "slowest suites (of %.1f s over %d):\n" total
    (List.length rows);
  List.iteri
    (fun i (suite, s) ->
      if i < 5 then Printf.eprintf "  %-14s %7.2f s\n" suite s)
    rows

let () =
  at_exit report_slowest;
  Alcotest.run "imprecise"
  @@ List.map timed
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("pretty", Test_pretty.suite);
      ("gen", Test_gen.suite);
      ("subst", Test_subst.suite);
      ("exn_set", Test_exn_set.suite);
      ("types", Test_types.suite);
      ("lang_misc", Test_lang_misc.suite);
      ("denot", Test_denot.suite);
      ("fixed", Test_fixed.suite);
      ("exval", Test_exval.suite);
      ("iosem", Test_iosem.suite);
      ("oracle", Test_oracle.suite);
      ("conc", Test_conc.suite);
      ("programs", Test_programs.suite);
      ("machine", Test_machine.suite);
      ("resolve", Test_resolve.suite);
      ("bytecode", Test_bytecode.suite);
      ("machine_io", Test_machine_io.suite);
      ("gc", Test_gc.suite);
      ("strictness", Test_strictness.suite);
      ("exn_analysis", Test_exn_analysis.suite);
      ("transform", Test_transform.suite);
      ("laws", Test_laws.suite);
      ("ablation", Test_ablation.suite);
      ("prelude", Test_prelude.suite);
      ("props", Test_props.suite);
      ("diff", Test_diff.suite);
      ("faultinject", Test_faultinject.suite);
      ("obs", Test_obs.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
      ("reentrancy", Test_reentrancy.suite);
      ("conc_scale", Test_conc_scale.suite);
      ("supervision", Test_supervision.suite);
    ]
