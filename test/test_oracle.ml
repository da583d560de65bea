open Imprecise
open Helpers
module E = Exn

let suite =
  [
    tc "first oracle picks the head" (fun () ->
        let o = Oracle.first () in
        Alcotest.(check (option int)) "head" (Some 1) (Oracle.pick o [ 1; 2; 3 ]));
    tc "replayed oracle follows the recorded catches, then first" (fun () ->
        let tr = Obs.create ~capacity:8 ~on:true () in
        List.iter (Obs.record tr)
          [
            Obs.Ev_catch (Some E.Overflow);
            Obs.Ev_catch None;
            Obs.Ev_catch (Some E.Blocked_indefinitely);
            Obs.Ev_catch (Some (E.User_error "b"));
          ];
        let o = Oracle.replay ~uncaught:E.Divide_by_zero tr in
        let set = Exn_set.of_list [ E.Divide_by_zero; E.Overflow ] in
        let pick s = Oracle.pick_exception o s in
        (* Asynchronous catches are raised without a pick, so the script
           skips them; a scripted member is taken, a non-member stays. *)
        Alcotest.(check bool) "scripted member" true (pick set = E.Overflow);
        Alcotest.(check bool) "off-script falls back to first" true
          (pick set = E.Divide_by_zero);
        Alcotest.(check bool) "head kept for the next pick" true
          (pick Exn_set.All = E.User_error "b");
        Alcotest.(check bool) "then the uncaught exception" true
          (pick set = E.Divide_by_zero);
        Alcotest.(check bool) "script exhausted" true (pick set = E.Divide_by_zero);
        Alcotest.(check int) "one off-script pick" 1
          (List.length (Oracle.off_script o));
        (match Oracle.off_script o with
        | [ (x, s) ] ->
            Alcotest.(check bool) "recorded with its set" true
              (x = E.User_error "b" && Exn_set.equal s set)
        | _ -> Alcotest.fail "off-script");
        (* Overflow the recorder: the retained tail would script
           UserError "b", but a script without its head is dropped. *)
        for _ = 1 to 5 do
          Obs.record tr (Obs.Ev_catch None)
        done;
        Alcotest.(check bool) "overflowed recorder gives first" true
          (Oracle.pick_exception (Oracle.replay tr) Exn_set.All
          = Oracle.pick_exception (Oracle.first ()) Exn_set.All));
    tc "pick on empty list is None" (fun () ->
        let o = Oracle.create ~seed:1 in
        Alcotest.(check (option int)) "none" None (Oracle.pick o []));
    tc "seeded oracle is reproducible" (fun () ->
        let draws seed =
          let o = Oracle.create ~seed in
          List.init 10 (fun _ -> Oracle.int_below o 100)
        in
        Alcotest.(check (list int)) "same" (draws 42) (draws 42));
    tc "different seeds differ" (fun () ->
        let draws seed =
          let o = Oracle.create ~seed in
          List.init 20 (fun _ -> Oracle.int_below o 1000)
        in
        Alcotest.(check bool) "differ" false (draws 1 = draws 2));
    tc "int_below stays in range" (fun () ->
        let o = Oracle.create ~seed:7 in
        for _ = 1 to 200 do
          let n = Oracle.int_below o 13 in
          if n < 0 || n >= 13 then Alcotest.failf "out of range: %d" n
        done);
    tc "pick_exception picks a member of a finite set" (fun () ->
        let s = Exn_set.of_list [ E.Overflow; E.Interrupt; E.Timeout ] in
        let o = Oracle.create ~seed:5 in
        for _ = 1 to 50 do
          let e = Oracle.pick_exception o s in
          if not (Exn_set.mem e s) then
            Alcotest.failf "picked non-member %a" E.pp e
        done);
    tc "pick_exception on All returns synchronous constants (5.3)" (fun () ->
        let o = Oracle.create ~seed:9 in
        for _ = 1 to 50 do
          let e = Oracle.pick_exception o Exn_set.All in
          if E.is_asynchronous e then
            Alcotest.failf "async fictitious exception %a" E.pp e
        done);
    tc "first oracle never diverges" (fun () ->
        let o = Oracle.first () in
        Alcotest.(check bool)
          "no diverge" false
          (Oracle.diverge_on_non_termination o Exn_set.All));
    tc "seeded oracle may diverge only with NonTermination present"
      (fun () ->
        let o = Oracle.create ~seed:3 in
        let without = Exn_set.singleton E.Overflow in
        for _ = 1 to 50 do
          if Oracle.diverge_on_non_termination o without then
            Alcotest.fail "diverged without NonTermination in the set"
        done);
    tc "coin is roughly fair" (fun () ->
        let o = Oracle.create ~seed:11 in
        let heads = ref 0 in
        for _ = 1 to 1000 do
          if Oracle.coin o then incr heads
        done;
        Alcotest.(check bool)
          (Printf.sprintf "heads=%d" !heads)
          true
          (!heads > 300 && !heads < 700));
  ]
