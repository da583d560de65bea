open Imprecise
open Helpers
module E = Exn

let io_outcome : Io.outcome Alcotest.testable =
  Alcotest.testable Io.pp_outcome (fun a b ->
      match (a, b) with
      | Io.Done d1, Io.Done d2 -> Value.deep_equal d1 d2
      | Io.Uncaught e1, Io.Uncaught e2 -> E.equal e1 e2
      | Io.Io_diverged, Io.Io_diverged -> true
      | Io.Stuck _, Io.Stuck _ -> true
      | _ -> false)

let run ?oracle ?input ?async src = Io.run ?oracle ?input ?async (parse src)

let check_outcome msg expected r =
  Alcotest.check io_outcome msg expected r.Io.outcome

let suite =
  [
    tc "return delivers the value" (fun () ->
        check_outcome "ret" (Io.Done (dint 5)) (run "return (2 + 3)"));
    tc "bind sequences" (fun () ->
        check_outcome "bind" (Io.Done (dint 8))
          (run "return 3 >>= \\x -> return (x + 5)"));
    tc "bind is left-nested-safe" (fun () ->
        check_outcome "assoc" (Io.Done (dint 6))
          (run "(return 1 >>= \\a -> return (a + 1)) >>= \\b -> return (b * 3)"));
    tc "getChar reads, putChar writes (paper's echo program)" (fun () ->
        let r = run ~input:"x" "getChar >>= \\c -> putChar c" in
        check_outcome "echo" (Io.Done (Value.DCon ("Unit", []))) r;
        Alcotest.(check string) "out" "x" (Io.output_string_of r));
    tc "trace records reads and writes in order" (fun () ->
        let r = run ~input:"ab" "getChar >>= \\c -> getChar >>= \\d -> putChar d >> putChar c" in
        Alcotest.(check string) "out" "ba" (Io.output_string_of r);
        Alcotest.(check int) "events" 4 (List.length r.Io.trace));
    tc "getChar on empty input is stuck" (fun () ->
        check_outcome "eof" (Io.Stuck "") (run "getChar"));
    tc "putInt prints decimal" (fun () ->
        Alcotest.(check string) "out" "12345\n" (Io.output_string_of (run "putLine (showInt 12345)")));
    tc "putInt prints negatives" (fun () ->
        Alcotest.(check string) "out" "-42" (Io.output_string_of (run "putInt (negate 42)")));
    tc "getException returns OK for normal values" (fun () ->
        check_outcome "ok"
          (Io.Done (Value.DCon ("OK", [ dint 3 ])))
          (run "getException 3 >>= \\v -> return v"));
    tc "getException picks a member of the set" (fun () ->
        let members = [ E.Divide_by_zero; E.User_error "Urk" ] in
        List.iter
          (fun seed ->
            let r =
              run
                ~oracle:(Oracle.create ~seed)
                "getException (1/0 + error \"Urk\") >>= \\v -> return v"
            in
            match r.Io.outcome with
            | Io.Done (Value.DCon ("Bad", [ d ])) ->
                let matches e =
                  Value.deep_equal d
                    (Value.deep_of_whnf (Value.exn_to_value e))
                in
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d in set" seed)
                  true
                  (List.exists matches members)
            | o -> Alcotest.failf "unexpected %a" Io.pp_outcome o)
          [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
    tc "different seeds can pick different members" (fun () ->
        let pick seed =
          let r =
            run ~oracle:(Oracle.create ~seed)
              "getException (1/0 + error \"Urk\") >>= \\v -> return v"
          in
          Fmt.str "%a" Io.pp_outcome r.Io.outcome
        in
        let picks = List.map pick (List.init 30 (fun i -> i)) in
        Alcotest.(check bool) "two distinct" true
          (List.exists (fun p -> p <> List.hd picks) picks));
    tc "the first oracle is deterministic" (fun () ->
        let r1 = run "getException (1/0 + error \"Urk\") >>= \\v -> return v"
        and r2 = run "getException (1/0 + error \"Urk\") >>= \\v -> return v" in
        Alcotest.check io_outcome "same" r1.Io.outcome r2.Io.outcome);
    tc "uncaught exception is reported (paper 4.4)" (fun () ->
        check_outcome "uncaught" (Io.Uncaught E.Divide_by_zero)
          (run "putInt (1/0)"));
    tc "exceptional IO structure is uncaught" (fun () ->
        check_outcome "badmain" (Io.Uncaught (E.User_error "boom"))
          (run "error \"boom\""));
    tc "exceptional continuation is uncaught" (fun () ->
        check_outcome "badk" (Io.Uncaught (E.User_error "k"))
          (run "return 1 >>= error \"k\""));
    tc "getException of bottom may return a fictitious exception (5.3)"
      (fun () ->
        let r =
          Io.run
            ~config:(Denot.with_fuel 5_000)
            ~oracle:(Oracle.create ~seed:1)
            (parse "getException (fix (\\x -> x)) >>= \\v -> return v")
        in
        match r.Io.outcome with
        | Io.Done (Value.DCon ("Bad", [ _ ])) | Io.Io_diverged -> ()
        | o -> Alcotest.failf "unexpected %a" Io.pp_outcome o);
    tc "async timeout delivered at getException (5.1)" (fun () ->
        let r =
          Io.run
            ~async:[ (0, E.Timeout) ]
            (parse "getException (sum (enumFromTo 1 5000)) >>= \\v -> return v")
        in
        check_outcome "timeout"
          (Io.Done
             (Value.DCon ("Bad", [ Value.DCon ("Timeout", []) ])))
          r);
    tc "async event can discard a normal value (5.1)" (fun () ->
        let r =
          Io.run ~async:[ (0, E.Interrupt) ]
            (parse "getException 42 >>= \\v -> return v")
        in
        check_outcome "discard"
          (Io.Done (Value.DCon ("Bad", [ Value.DCon ("Interrupt", []) ])))
          r);
    tc "async event waits for a getException" (fun () ->
        (* No getException in the program: the event is never delivered. *)
        let r =
          Io.run ~async:[ (0, E.Interrupt) ] (parse "return 1")
        in
        check_outcome "undelivered" (Io.Done (dint 1)) r);
    tc "two async events, two catches" (fun () ->
        let r =
          Io.run
            ~async:[ (0, E.Timeout); (0, E.Interrupt) ]
            (parse
               "getException 1 >>= \\a -> getException 2 >>= \\b ->\n\
                return (Pair a b)")
        in
        check_outcome "both"
          (Io.Done
             (Value.DCon
                ( "Pair",
                  [
                    Value.DCon ("Bad", [ Value.DCon ("Timeout", []) ]);
                    Value.DCon ("Bad", [ Value.DCon ("Interrupt", []) ]);
                  ] )))
          r);
    tc "mapM collects" (fun () ->
        check_outcome "mapM"
          (Io.Done (dints [ 2; 3; 4 ]))
          (run "mapM (\\x -> return (x + 1)) [1, 2, 3]"));
    tc "ioSeq sequences output" (fun () ->
        Alcotest.(check string)
          "out" "abc"
          (Io.output_string_of
             (run "ioSeq [putChar 'a', putChar 'b', putChar 'c']")));
    tc "transition budget reports divergence" (fun () ->
        let r =
          Io.run ~max_steps:50
            (parse
               "let rec spin = return 1 >>= \\x -> spin in spin")
        in
        check_outcome "spin" Io.Io_diverged r);
    tc "non-IO value is stuck" (fun () ->
        check_outcome "stuck" (Io.Stuck "") (run "42"));
    tc "bracket releases on success, in order" (fun () ->
        let r =
          run
            "bracket (putChar 'A' >>= \\u -> return 1) (\\r -> putChar 'R') \
             (\\r -> putChar 'U' >>= \\u -> return (r + 1))"
        in
        check_outcome "done" (Io.Done (dint 2)) r;
        Alcotest.(check string) "order" "AUR" (Io.output_string_of r);
        Alcotest.(check int) "entered" 1 r.Io.counters.Io.brackets_entered;
        Alcotest.(check int) "released" 1 r.Io.counters.Io.brackets_released);
    tc "bracket releases on exception, which still propagates" (fun () ->
        let r =
          run
            "bracket (putChar 'A' >>= \\u -> return 1) (\\r -> putChar 'R') \
             (\\r -> seq (1/0) (return 0))"
        in
        check_outcome "uncaught" (Io.Uncaught E.Divide_by_zero) r;
        Alcotest.(check string) "released" "AR" (Io.output_string_of r);
        Alcotest.(check int) "released" 1 r.Io.counters.Io.brackets_released);
    tc "finally always runs, onException only on exceptions" (fun () ->
        let fin = run "finally (putChar 'x' >>= \\u -> return 3) (putChar 'c')" in
        check_outcome "finally" (Io.Done (dint 3)) fin;
        Alcotest.(check string) "out" "xc" (Io.output_string_of fin);
        let ok = run "onException (return 3) (putChar 'h')" in
        Alcotest.(check string) "no handler" "" (Io.output_string_of ok);
        let ex = run "onException (seq (head []) (return 0)) (putChar 'h')" in
        (match ex.Io.outcome with
        | Io.Uncaught (E.Pattern_match_fail _) -> ()
        | o -> Alcotest.failf "unexpected %a" Io.pp_outcome o);
        Alcotest.(check string) "handler ran" "h" (Io.output_string_of ex));
    tc "timeout expires to Nothing; an enclosed bracket still releases"
      (fun () ->
        let r =
          run
            "timeout 6 (bracket (putChar 'A' >>= \\u -> return 1) (\\r -> \
             putChar 'R') (\\r -> putList (replicate 30 'x'))) >>= \\mv -> \
             case mv of { Nothing -> putChar 'T' >>= \\u -> return 0 ; \
             Just v -> return v }"
        in
        check_outcome "timed out" (Io.Done (dint 0)) r;
        Alcotest.(check int) "fired" 1 r.Io.counters.Io.timeouts_fired;
        let out = Io.output_string_of r in
        Alcotest.(check bool) "released" true (String.contains out 'R');
        Alcotest.(check bool) "Nothing branch" true (String.contains out 'T'));
    tc "timeout that does not expire yields Just" (fun () ->
        check_outcome "just"
          (Io.Done (Value.DCon ("Just", [ dint 7 ])))
          (run "timeout 50 (return 7)"));
    tc "mask defers async delivery past the masked section" (fun () ->
        let r =
          run
            ~async:[ (0, E.Interrupt) ]
            "mask (getException 1 >>= \\a -> putChar 'M' >>= \\u -> return \
             0) >>= \\w -> getException 2 >>= \\b -> case b of { Bad e -> \
             putChar '!' >>= \\u -> return 1 ; OK x -> putChar '.' >>= \\u \
             -> return 2 }"
        in
        check_outcome "deferred to the unmasked getException"
          (Io.Done (dint 1)) r;
        Alcotest.(check string) "out" "M!" (Io.output_string_of r);
        Alcotest.(check int) "delivered once" 1
          r.Io.counters.Io.async_delivered);
    tc "retryWithBackoff retries then gives up" (fun () ->
        let r =
          run "retryWithBackoff 3 2 (putChar 't' >>= \\u -> seq (1/0) (return 0))"
        in
        check_outcome "exhausted" (Io.Uncaught E.Divide_by_zero) r;
        Alcotest.(check string) "one t per attempt" "tttt"
          (Io.output_string_of r);
        Alcotest.(check int) "retries" 3 r.Io.counters.Io.retries);
    tc "retryWithBackoff succeeds once the input changes" (fun () ->
        let r =
          run ~input:"xxy"
            "retryWithBackoff 3 2 (getChar >>= \\c -> case c of { 'x' -> \
             seq (1/0) (return 0) ; z -> return 99 })"
        in
        check_outcome "third attempt" (Io.Done (dint 99)) r;
        let reads =
          List.length
            (List.filter
               (function Io.E_read _ -> true | _ -> false)
               r.Io.trace)
        in
        Alcotest.(check int) "three reads" 3 reads);
    tc "async events fire in step order, not injection order" (fun () ->
        (* The schedule is given late-first: the event due now must be
           the one delivered at the getException. *)
        let r =
          Io.run
            ~async:[ (5_000, E.Timeout); (0, E.Interrupt) ]
            (parse "getException (sum (enumFromTo 1 500)) >>= \\v -> return v")
        in
        check_outcome "first due"
          (Io.Done (Value.DCon ("Bad", [ Value.DCon ("Interrupt", []) ])))
          r);
  ]
