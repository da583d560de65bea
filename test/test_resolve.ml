open Imprecise
open Helpers
module E = Exn
module M = Machine
module MR = Machine_ref

(* Differential suite for the compile-to-slots pass: the slot-compiled
   machine ({!Machine}) must be observationally identical to the
   name-based reference machine ({!Machine_ref}) — both are deterministic
   left-to-right call-by-need evaluators of the same expression — and must
   still refine the denotational semantics. The default generator
   configuration includes raise sites and division, so exceptional
   outcomes are exercised throughout. *)

let config_m = { M.default_config with fuel = 2_000_000 }
let config_r = { MR.default_config with fuel = 2_000_000 }
let denot_config = Denot.with_fuel 20_000

let slot_deep e = M.run_deep ~config:config_m ~depth:24 e
let ref_deep e = MR.run_deep ~config:config_r ~depth:24 e
let denot_deep e = Denot.run_deep ~config:denot_config ~depth:24 e

(* The two machines count steps slightly differently (e.g. the resolver
   desugars [Fix] into a [letrec], adding a variable hop), so a fuel
   verdict on one side need not land on the other. Exact agreement is
   required only when neither side reports divergence. *)
let rec mentions_all = function
  | Value.DBad s -> Exn_set.is_all s
  | Value.DCon (_, ds) -> List.exists mentions_all ds
  | Value.DInt _ | Value.DChar _ | Value.DString _ | Value.DFun | Value.DCut
    ->
      false

(* The exception machinery must fire identically on both machines: same
   number of catch marks consulted, same thunks poisoned while
   unwinding, same async deliveries. (Step-dependent counters such as
   [frames_trimmed] are compared separately on curated programs — the
   resolver's [Fix] desugaring changes the stack shape slightly, so they
   need not match on arbitrary generated terms.) *)
let check_stats_parity (sts : Stats.t) (str : Stats.t) =
  let pair name a b =
    if a <> b then
      QCheck2.Test.fail_reportf "stats parity: %s %d (slot) vs %d (ref)"
        name a b
    else true
  in
  pair "catches" sts.Stats.catches str.Stats.catches
  && pair "thunks_poisoned" sts.Stats.thunks_poisoned
       str.Stats.thunks_poisoned
  && pair "async_delivered" sts.Stats.async_delivered
       str.Stats.async_delivered

let machines_agree w =
  let ds, sts = slot_deep w in
  let dr, str = ref_deep w in
  (* The resolved runtime path must never touch a string-keyed map. *)
  if sts.Stats.env_lookups <> 0 then
    QCheck2.Test.fail_reportf "slot machine paid %d env_lookups"
      sts.Stats.env_lookups;
  if mentions_all ds || mentions_all dr then true
  else if Value.deep_equal ds dr then
    check_stats_parity sts str
  else
    QCheck2.Test.fail_reportf "slot: %a@.ref:  %a" Value.pp_deep ds
      Value.pp_deep dr

(* Interrupt both machines mid-evaluation with the same schedule, resume,
   and require the resumed value to equal the uninterrupted one: the slot
   machine's pause cells (now closing over array frames rather than maps)
   must preserve exactly as much work. *)
let interrupted_resume_agree src =
  let expected, _ = M.run_deep (parse src) in
  let slot =
    let m = M.create () in
    M.inject_async m ~at_step:50 E.Interrupt;
    let a = M.alloc m (parse src) in
    (match M.force_catch m a with
    | Error (M.Fail_async E.Interrupt) -> ()
    | Ok _ -> Alcotest.fail "slot: expected interruption"
    | Error f -> Alcotest.failf "slot: unexpected %a" M.pp_failure f);
    Alcotest.(check bool)
      "slot machine paused work" true
      ((M.stats m).Stats.thunks_paused > 0);
    match M.force_catch m a with
    | Ok v -> M.deep m (M.alloc_value m v)
    | Error f -> Alcotest.failf "slot: resume failed: %a" M.pp_failure f
  in
  let reference =
    let m = MR.create () in
    MR.inject_async m ~at_step:50 E.Interrupt;
    let a = MR.alloc m (parse src) in
    (match MR.force_catch m a with
    | Error (MR.Fail_async E.Interrupt) -> ()
    | Ok _ -> Alcotest.fail "ref: expected interruption"
    | Error f -> Alcotest.failf "ref: unexpected %a" MR.pp_failure f);
    match MR.force_catch m a with
    | Ok v -> MR.deep m (MR.alloc_value m v)
    | Error f -> Alcotest.failf "ref: resume failed: %a" MR.pp_failure f
  in
  Alcotest.check deep "slot resume = uninterrupted" expected slot;
  Alcotest.check deep "ref resume = uninterrupted" expected reference

(* The Prelude image: resolving [Prelude.wrap e] links [e] against the
   context's once-resolved Prelude. A copy of the defs list defeats the
   physical test and resolves the Prelude in place, so the two must give
   structurally identical IR — raise labels and constructor tags
   included. *)
let unlinked e = Syntax.Letrec (List.map Fun.id Prelude.defs, e)

let links_identically e =
  Resolve.expr (Prelude.wrap e) = Resolve.expr (unlinked e)

let corpus_terms () =
  let entries, _ = Corpus.load_dir "../fuzz/corpus" in
  List.map (fun e -> e.Corpus.expr) (entries @ Corpus.dictionary ())

let example_programs () =
  let dir = Lazy.force Test_programs.program_dir in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".hs")
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat dir f) in
         let src = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (f, Parser.parse_program src))

(* Raise-site numbers of every label in an IR, in no particular order. *)
let rec raise_sites (r : Resolve.rexpr) : int list =
  let arg = function
    | Resolve.Aslot _ -> []
    | Resolve.Athunk t -> raise_sites t.Resolve.tbody
  in
  match r with
  | Resolve.RRaise (lbl, v) ->
      Scanf.sscanf lbl "raise#%d" Fun.id :: raise_sites v
  | Resolve.RVar _ | Resolve.RUnbound _ | Resolve.RLit _ -> []
  | Resolve.RLam l -> raise_sites l.Resolve.lbody
  | Resolve.RApp (f, a) -> raise_sites f @ arg a
  | Resolve.RCon (_, args) -> List.concat_map arg (Array.to_list args)
  | Resolve.RCase (s, alts) ->
      raise_sites s
      @ List.concat_map
          (fun a -> raise_sites a.Resolve.rrhs)
          (Array.to_list alts)
  | Resolve.RLet (a, b) | Resolve.RMapexn (a, b) -> arg a @ raise_sites b
  | Resolve.RLetrec (specs, b) ->
      List.concat_map
        (fun t -> raise_sites t.Resolve.tbody)
        (Array.to_list specs)
      @ raise_sites b
  | Resolve.RPrim (_, es) -> List.concat_map raise_sites es
  | Resolve.RIsexn v | Resolve.RGetexn v -> raise_sites v

let root_specs = function
  | Resolve.RLetrec (specs, _) -> specs
  | _ -> Alcotest.fail "expected a root letrec"

let image_suite =
  [
    tc "image: corpus programs link to the in-place IR" (fun () ->
        List.iteri
          (fun i e ->
            Alcotest.(check bool)
              (Printf.sprintf "corpus term %d" i)
              true (links_identically e))
          (corpus_terms ()));
    qtest ~count:100 "image: generated int terms link to the in-place IR"
      (Gen.gen_int ()) links_identically;
    qtest ~count:60 "image: generated list terms link to the in-place IR"
      (Gen.gen_list ()) links_identically;
    qtest ~count:60 "image: generated IO terms link to the in-place IR"
      (Gen.gen_io ()) links_identically;
    qtest ~count:40 "image: generated conc terms link to the in-place IR"
      (Gen.gen_conc ()) links_identically;
    tc "image: whole programs (wrap_program) link to the in-place IR"
      (fun () ->
        List.iter
          (fun (f, (p : Syntax.program)) ->
            Alcotest.(check bool) f true
              (Resolve.expr (Prelude.wrap_program p)
              = Resolve.expr (unlinked (Syntax.Letrec (p.defs, p.main)))))
          (example_programs ()));
    tc "image: a user definition shadowing map" (fun () ->
        let p =
          Parser.parse_program
            "map f xs = 42; main = map 1 2 + sum [1, 2];"
        in
        let w = Prelude.wrap_program p in
        Alcotest.(check bool) "same IR" true
          (Resolve.expr w
          = Resolve.expr (unlinked (Syntax.Letrec (p.defs, p.main))));
        Alcotest.check deep "the user's map wins" (Value.DInt 45)
          (fst (slot_deep w)));
    tc "image: raise labels number on after the Prelude's" (fun () ->
        List.iter
          (fun src ->
            let e = parse_raw src in
            Alcotest.(check bool) (src ^ ": same IR") true
              (links_identically e);
            match Resolve.expr (Prelude.wrap e) with
            | Resolve.RLetrec (specs, body) ->
                let prelude =
                  List.concat_map
                    (fun t -> raise_sites t.Resolve.tbody)
                    (Array.to_list specs)
                in
                let k = List.length prelude in
                Alcotest.(check (list int))
                  "the Prelude's sites are 0..k-1" (List.init k Fun.id)
                  (List.sort compare prelude);
                let own = List.sort compare (raise_sites body) in
                Alcotest.(check bool)
                  (src ^ ": body has raise sites") true (own <> []);
                Alcotest.(check (list int))
                  (src ^ ": body sites continue from k")
                  (List.init (List.length own) (fun i -> k + i))
                  own
            | _ -> Alcotest.fail "expected a root letrec")
          [
            "raise (UserError 1)";
            "raise DivideByZero + error \"Urk\"";
            "mapException (\\e -> raise e) (raise Overflow)";
          ]);
    tc "image: two requests share the image's templates" (fun () ->
        let s1 = root_specs (Resolve.expr (parse "1 + 2")) in
        let s2 = root_specs (Resolve.expr (parse "head []")) in
        Alcotest.(check bool) "same specs array" true (s1 == s2);
        Alcotest.(check bool) "recognised as an image" true
          (Resolve.is_prelude_image s1));
    tc "image: a new context builds its own image" (fun () ->
        let ctx = Resolve.new_context () in
        let mine = root_specs (Resolve.expr ~ctx (parse "1 + 2")) in
        let global = root_specs (Resolve.expr (parse "1 + 2")) in
        Alcotest.(check bool) "not the global image" false (mine == global);
        Alcotest.(check bool) "recognised as an image" true
          (Resolve.is_prelude_image mine);
        Alcotest.(check bool) "shared within the context" true
          (mine == root_specs (Resolve.expr ~ctx (parse "head []"))));
    tc "image: a copied defs list is not an image" (fun () ->
        let r = Resolve.expr (unlinked (Syntax.Lit (Syntax.Lit_int 1))) in
        Alcotest.(check bool) "in-place letrec" false
          (Resolve.is_prelude_image (root_specs r)));
    tc "captures: a 16,000-element list literal resolves in under 0.5 s"
      (fun () ->
        let src =
          "[" ^ String.concat ", " (List.init 16_000 string_of_int) ^ "]"
        in
        let e = parse src in
        let t0 = Unix.gettimeofday () in
        let r = Resolve.expr e in
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "resolved in %.3f s" dt)
          true (dt < 0.5);
        Alcotest.(check (list string)) "closed" [] (Resolve.unbound r));
  ]

let suite =
  image_suite
  @ [
    qtest ~count:200 "slot machine agrees with reference machine (int)"
      (Gen.gen_int ())
      (fun e -> machines_agree (Prelude.wrap e));
    qtest ~count:120 "slot machine agrees with reference machine (list)"
      (Gen.gen_list ())
      (fun e -> machines_agree (Prelude.wrap e));
    qtest ~count:120 "slot machine refines the denotation"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        let d, _ = slot_deep w in
        implements d (denot_deep w));
    qtest ~count:100 "machines report the same caught representative"
      (Gen.gen_int ())
      (fun e ->
        (* Catch at the top: when the term raises, both machines must
           surface the *same* exception — same trim order, same
           left-to-right choice of representative. *)
        let w = Prelude.wrap e in
        let rs =
          let m = M.create ~config:config_m () in
          M.force_catch m (M.alloc m w)
        in
        let rr =
          let m = MR.create ~config:config_r () in
          MR.force_catch m (MR.alloc m w)
        in
        match (rs, rr) with
        | Error (M.Fail_exn e1), Error (MR.Fail_exn e2) -> E.equal e1 e2
        | Error M.Fail_diverged, _ | _, Error MR.Fail_diverged -> true
        | Ok _, Ok _ -> true
        | _ -> false);
    qtest ~count:80 "resolution is total and accounted"
      (Gen.gen_int ())
      (fun e ->
        (* Every node of the source term is visited exactly once by the
           resolver, and closed terms resolve with no unbound leftovers. *)
        let w = Prelude.wrap e in
        let r = Resolve.expr w in
        Resolve.count_nodes r > 0 && Resolve.unbound r = []);
    tc "async interruption and resume agree across machines" (fun () ->
        interrupted_resume_agree "product (enumFromTo 1 10)");
    tc "async interruption under a deeper pipeline" (fun () ->
        interrupted_resume_agree
          "sum (map (\\x -> x * x) (enumFromTo 1 40))");
    tc "exception-path stats match across machines" (fun () ->
        (* Same raise under a catch on curated programs with identical
           stack shapes (no [Fix], so the resolver adds no extra hops):
           the unwinding machinery must do exactly the same amount of
           work on both machines — frames trimmed, thunks poisoned,
           catch marks consulted, async events delivered. *)
        List.iter
          (fun (src, async) ->
            let run_slot () =
              let m = M.create ~config:config_m () in
              Option.iter
                (fun (k, x) -> M.inject_async m ~at_step:k x)
                async;
              ignore (M.force_catch m (M.alloc m (parse src)));
              M.stats m
            in
            let run_ref () =
              let m = MR.create ~config:config_r () in
              Option.iter
                (fun (k, x) -> MR.inject_async m ~at_step:k x)
                async;
              ignore (MR.force_catch m (MR.alloc m (parse src)));
              MR.stats m
            in
            let sts = run_slot () and str = run_ref () in
            let check name a b =
              Alcotest.(check int) (Printf.sprintf "%s: %s" src name) b a
            in
            check "catches" sts.Stats.catches str.Stats.catches;
            check "thunks_poisoned" sts.Stats.thunks_poisoned
              str.Stats.thunks_poisoned;
            check "async_delivered" sts.Stats.async_delivered
              str.Stats.async_delivered;
            check "frames_trimmed" sts.Stats.frames_trimmed
              str.Stats.frames_trimmed)
          [
            ("1/0", None);
            ("head []", None);
            ("sum [1, 2, 1/0, 4]", None);
            ("let rec go n = if n == 0 then error \"deep\" \
              else 1 + go (n - 1) in go 500", None);
            ("sum (enumFromTo 1 3000)", Some (2_000, E.Timeout));
          ]);
  ]
