open Imprecise
open Helpers

(* C13: the implementations refine the denotational semantics. Every
   exception an implementation actually reports must be a member of the
   semantic exception set, and normal results must agree exactly. *)

let machine_config = { Machine.default_config with fuel = 2_000_000 }
let denot_config = Denot.with_fuel 20_000

let machine_deep e =
  let d, _ = Machine.run_deep ~config:machine_config ~depth:24 e in
  d

let denot_deep e = Denot.run_deep ~config:denot_config ~depth:24 e

(* The fuzzer's minimised io-outcome witness. [putInt (raise X - 1)]
   denotes [Bad All]: forcing the string in exception-finding mode
   (Section 4.3) reaches the recursion inside [putList]. The
   first-member oracle picks DivideByZero, which [matchArith] handles
   (1); the machine raises the GenExnC it met first, which only
   [matchAny] handles (2). Both are legal, so the strict check must not
   compare the two choices. *)
let io_outcome_witness =
  {|NewChan 1 >>= (\c ->
     catches
       (putInt (raise (GenExnC "gen") - 1)
        >>= (\_ ->
               catches (Return (index Nil c))
                 [handler matchArith (\_e -> Return 1),
                  handler matchAny (\_e -> Return 2)]))
       [handler matchArith (\_e -> Return 1),
        handler matchAny (\_e -> Return 2)])|}

let suite =
  [
    tc "io differential follows the machine's legal exception choice"
      (fun () ->
        let prog = parse_raw io_outcome_witness in
        let w = Prelude.wrap prog in
        let result = function
          | Io.Done (Value.DInt n) -> n
          | o -> Alcotest.failf "iosem: %a" Io.pp_outcome o
        in
        Alcotest.(check int) "first-member oracle takes the arith handler" 1
          (result (Io.run ~oracle:(Oracle.first ()) w).Io.outcome);
        (match (Machine_io.run w).Machine_io.outcome with
        | Machine_io.Done (Value.DInt 2) -> ()
        | o -> Alcotest.failf "machine: %a" Machine_io.pp_outcome o);
        let r = Differ.check_io Differ.default_vconfig ~seed:13118 prog in
        Alcotest.(check (list string)) "no violations" []
          (List.map (Fmt.str "%a" Differ.pp_violation) r.Differ.violations));
    qtest ~count:150 "machine refines denotation on int terms"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        implements (machine_deep w) (denot_deep w));
    qtest ~count:100 "machine refines denotation on list terms"
      (Gen.gen_list ())
      (fun e ->
        let w = Prelude.wrap e in
        implements (machine_deep w) (denot_deep w));
    qtest ~count:80 "machine agrees exactly with fixed-order L2R"
      (Gen.gen_int ())
      (fun e ->
        (* Both are deterministic left-to-right call-by-need evaluators,
           so they should report the *same* representative. *)
        let w = Prelude.wrap e in
        let md = machine_deep w in
        let fd =
          Fixed.outcome_to_deep
            (Fixed.run_deep ~fuel:1_000_000 ~depth:24 Fixed.Left_to_right w)
        in
        match (md, fd) with
        | Value.DBad s, _ when Exn_set.is_all s -> true
        | _, Value.DBad s when Exn_set.is_all s -> true
        | _ -> Value.deep_equal md fd);
    qtest ~count:60 "denotation is deterministic"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        Value.deep_equal (denot_deep w) (denot_deep w));
    qtest ~count:80 "terms whose denotation is exception-free agree \
                      exactly across all engines"
      (Gen.gen ~cfg:Gen.pure_cfg Gen.T_int)
      (fun e ->
        (* pure_cfg rules out raise sites and division, but Prelude
           partiality (head, index) and overflow can still produce
           exceptional denotations; exact three-way agreement is required
           only when the denotation is exception-free. *)
        let rec has_bad = function
          | Value.DBad _ -> true
          | Value.DCon (_, ds) -> List.exists has_bad ds
          | Value.DInt _ | Value.DChar _ | Value.DString _ | Value.DFun
          | Value.DCut ->
              false
        in
        let w = Prelude.wrap e in
        let dd = denot_deep w in
        let md = machine_deep w in
        let fd =
          Fixed.outcome_to_deep
            (Fixed.run_deep ~fuel:1_000_000 ~depth:24 Fixed.Left_to_right w)
        in
        if has_bad dd then implements md dd
        else Value.deep_equal dd md && Value.deep_equal md fd);
    qtest ~count:60 "optimised terms refine the original denotation"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        let optimised, _ = Pipeline.optimize Pipeline.Imprecise w in
        Value.deep_leq (denot_deep w) (denot_deep optimised));
    qtest ~count:60 "machine still refines after optimisation"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        let optimised, _ = Pipeline.optimize Pipeline.Imprecise w in
        implements (machine_deep optimised) (denot_deep w)
        || implements (machine_deep optimised) (denot_deep optimised));
    qtest ~count:80 "semantic and machine IO drivers agree on programs"
      (Gen.gen_io ())
      (fun prog ->
        let w = Prelude.wrap prog in
        (* Generous budgets so fuel exhaustion cannot masquerade as a
           semantic disagreement. The machine runs first: the exceptions
           it catches script the semantic driver's oracle, so both make
           the same legal choice from every exception set, and a machine
           exception outside the set is reported as off-script. *)
        let tr = Obs.create ~capacity:8192 ~on:true () in
        let mach = Machine_io.run ~config:machine_config ~trace:tr w in
        let oracle =
          match mach.Machine_io.outcome with
          | Machine_io.Uncaught e -> Oracle.replay ~uncaught:e tr
          | _ -> Oracle.replay tr
        in
        let sem = Io.run ~config:(Denot.with_fuel 100_000) ~oracle w in
        let output_ok =
          (* On uncaught/divergent runs the two drivers may cut the write
             trace at slightly different points; one trace must still be a
             prefix of the other. *)
          let a = Io.output_string_of sem and b = mach.Machine_io.output in
          let shorter, longer =
            if String.length a <= String.length b then (a, b) else (b, a)
          in
          String.equal shorter (String.sub longer 0 (String.length shorter))
        in
        let outcome_ok =
          match (sem.Io.outcome, mach.Machine_io.outcome) with
          | Io.Done d1, Machine_io.Done d2 ->
              (* The returned value may itself be exceptional: the machine
                 reports a representative of the semantic set. *)
              implements d2 d1
          | Io.Uncaught _, Machine_io.Uncaught _ -> true
          | Io.Io_diverged, _ | _, Machine_io.Io_diverged ->
              true (* fuel budgets differ between the engines *)
          | Io.Done _, Machine_io.Uncaught _
          | Io.Uncaught _, Machine_io.Done _ ->
              (* A set containing NonTermination lets the semantic layer
                 report an uncaught (possibly fictitious, 5.3) exception
                 where the machine simply keeps computing, or vice versa;
                 only flag genuinely different values. *)
              false
          | Io.Stuck _, Machine_io.Stuck _ -> true
          | _ -> false
        in
        let off_script = Oracle.off_script oracle in
        if not (output_ok && outcome_ok && off_script = []) then
          QCheck2.Test.fail_reportf
            "sem: %s out=%S@.mach: %s out=%S@.off-script: %a"
            (Fmt.str "%a" Io.pp_outcome sem.Io.outcome)
            (Io.output_string_of sem)
            (Fmt.str "%a" Machine_io.pp_outcome mach.Machine_io.outcome)
            mach.Machine_io.output
            Fmt.(list ~sep:semi (pair ~sep:(any " not in ") Exn.pp Exn_set.pp))
            off_script
        else true);
    qtest ~count:50 "rule rewrites preserve or refine denotations"
      (Gen.gen_int ())
      (fun e ->
        (* Apply every claimed-valid rule anywhere it fires and check the
           result against the claim. *)
        let w = Prelude.wrap e in
        List.for_all
          (fun (r : Rules.rule) ->
            match r.Rules.imprecise with
            | Rules.Invalid -> true
            | Rules.Identity | Rules.Refinement -> (
                match Rewrite.first_site r.Rules.applies w with
                | None -> true
                | Some w' ->
                    Value.deep_leq (denot_deep w) (denot_deep w')))
          [
            Rules.beta;
            Rules.let_inline;
            Rules.plus_commute;
            Rules.case_of_known_constructor;
            Rules.dead_let;
            Rules.case_of_case;
            Rules.strictness_cbv;
          ]);
  ]
