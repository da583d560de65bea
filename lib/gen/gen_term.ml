open Lang.Syntax
module B = Lang.Builder
module G = QCheck2.Gen

type ty = T_int | T_bool | T_list_int | T_fun_ii

type cfg = {
  raise_weight : int;
  div_weight : int;
  max_depth : int;
  use_prelude : bool;
  letrec_weight : int;
  map_exception_weight : int;
  sharing_weight : int;
  io_combinators : bool;
}

let default_cfg =
  {
    raise_weight = 2;
    div_weight = 2;
    max_depth = 4;
    use_prelude = true;
    letrec_weight = 1;
    map_exception_weight = 1;
    sharing_weight = 2;
    io_combinators = true;
  }

let pure_cfg =
  {
    default_cfg with
    raise_weight = 0;
    div_weight = 0;
    letrec_weight = 0;
  }

(* Environment: variables in scope, by type. *)
type env = (string * ty) list

let vars_of env ty =
  List.filter_map
    (fun (x, t) -> if t = ty then Some (Var x) else None)
    env

let fresh_name =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "g%d" !c

(* The generator owns three declared exception constructors so every
   fuzz campaign exercises the open vocabulary: a bare tag, an Int
   payload and a String payload. [Exn.declare] is idempotent, so
   re-linking the module is harmless. *)
let () =
  Lang.Exn.declare "GenExnA" Lang.Exn.K_none;
  Lang.Exn.declare "GenExnB" Lang.Exn.K_int;
  Lang.Exn.declare "GenExnC" Lang.Exn.K_string

let gen_exn_site : expr G.t =
  G.oneof
    [
      G.return (B.raise_exn Lang.Exn.Divide_by_zero);
      G.map (fun n -> B.error (Printf.sprintf "e%d" (abs n mod 4)))
        G.small_int;
      G.return (B.raise_exn Lang.Exn.Overflow);
      G.return B.(int 1 / int 0);
      G.return (B.raise_exn (Lang.Exn.User_exception ("GenExnA", None)));
      G.map
        (fun n ->
          B.raise_exn
            (Lang.Exn.User_exception
               ("GenExnB", Some (Lang.Exn.P_int (abs n mod 8)))))
        G.small_int;
      G.return
        (B.raise_exn
           (Lang.Exn.User_exception
              ("GenExnC", Some (Lang.Exn.P_string "gen"))));
    ]

let small_lit = G.map (fun n -> B.int n) (G.int_range (-20) 20)

(* The exception-to-exception mappers fed to [mapException]: identity, a
   constant relabel, and a payload rewrite. All are closed and typed
   [Exception -> Exception]. *)
let gen_mapper : expr G.t =
  G.oneofl
    [
      B.lam "e" (B.var "e");
      B.lam "e" (B.exn_con Lang.Exn.Overflow);
      B.lam "e" (B.exn_con (Lang.Exn.User_error "mapped"));
      B.lam "e"
        (B.exn_con
           (Lang.Exn.User_exception ("GenExnB", Some (Lang.Exn.P_int 1))));
    ]

(* [G.frequency] over thunks: an alternative's generator is built only
   when the draw picks it, so building a node costs one closure per
   alternative plus the chosen path, not a tree of every alternative at
   every depth below. Building a generator draws no randomness, so the
   random stream, the choices and integrated shrinking are exactly those
   of building every alternative up front; zero weights are dropped, as
   they can never be drawn. *)
let frequency (alts : (int * (unit -> 'a G.t)) list) : 'a G.t =
  G.frequency
    (List.filter_map
       (fun (w, alt) -> if w > 0 then Some (w, G.delay alt) else None)
       alts)

let rec gen_ty cfg (env : env) depth ty : expr G.t =
  if depth <= 0 then gen_leaf cfg env ty
  else
    match ty with
    | T_int -> gen_int_node cfg env depth
    | T_bool -> gen_bool_node cfg env depth
    | T_list_int -> gen_list_node cfg env depth
    | T_fun_ii ->
        let x = fresh_name () in
        G.map
          (fun body -> B.lam x body)
          (gen_ty cfg ((x, T_int) :: env) (depth - 1) T_int)

and gen_leaf cfg env ty : expr G.t =
  let leaf_vars = vars_of env ty in
  (* Constant leaves come first: QCheck2's integrated shrinking steers
     choices toward the head of the list, so failures report literal
     leaves rather than environment variables where possible. *)
  let base =
    match ty with
    | T_int -> [ small_lit ]
    | T_bool -> [ G.oneofl [ B.true_; B.false_ ] ]
    | T_list_int ->
        [
          G.return B.nil;
          G.map (fun n -> B.list [ B.int n ]) (G.int_range 0 9);
        ]
    | T_fun_ii ->
        [
          G.return (B.lam "z" (B.var "z"));
          G.map (fun n -> B.lam "z" B.(var "z" + int n)) (G.int_range 0 5);
        ]
  in
  let with_vars =
    if leaf_vars = [] then base else base @ [ G.oneofl leaf_vars ]
  in
  let with_raise =
    if cfg.raise_weight > 0 && ty <> T_fun_ii then
      with_vars @ [ gen_exn_site ]
    else with_vars
  in
  G.oneof with_raise

and gen_int_node cfg env depth : expr G.t =
  let sub = gen_ty cfg env (depth - 1) in
  let arith () =
    G.oneofl [ Lang.Prim.Add; Lang.Prim.Sub; Lang.Prim.Mul ]
    |> fun gp -> G.bind gp (fun p ->
           G.map2 (fun a b -> Prim (p, [ a; b ])) (sub T_int) (sub T_int))
  in
  let division () =
    G.oneofl [ Lang.Prim.Div; Lang.Prim.Mod ]
    |> fun gp -> G.bind gp (fun p ->
           G.map2 (fun a b -> Prim (p, [ a; b ])) (sub T_int) (sub T_int))
  in
  let conditional () =
    G.map3 (fun c t f -> B.if_ c t f) (sub T_bool) (sub T_int) (sub T_int)
  in
  let let_bound () =
    let x = fresh_name () in
    G.map2
      (fun e1 e2 -> Let (x, e1, e2))
      (sub T_int)
      (gen_ty cfg ((x, T_int) :: env) (depth - 1) T_int)
  in
  (* A binding used more than once: the call-by-need sharing that the
     machine's poison-replay (Section 3.3, footnote 3) must preserve —
     forcing the thunk a second time has to replay the same exception. *)
  let shared_let () =
    let x = fresh_name () in
    let ctxs =
      [
        B.(var x + var x);
        B.(seq (var x) (var x));
        B.(var x * (var x + int 1));
        Con (c_pair, [ Var x; Var x ])
        |> fun p ->
        Case (p, [ { pat = Pcon (c_pair, [ "a"; "b" ]);
                     rhs = B.(var "a" + var "b") } ]);
      ]
    in
    G.map2 (fun body e -> Let (x, e, body)) (G.oneofl ctxs) (sub T_int)
  in
  let beta_redex () =
    let x = fresh_name () in
    G.map2
      (fun body arg -> App (B.lam x body, arg))
      (gen_ty cfg ((x, T_int) :: env) (depth - 1) T_int)
      (sub T_int)
  in
  let apply_fun () =
    G.map2 (fun f a -> App (f, a)) (sub T_fun_ii) (sub T_int)
  in
  let seq_evaluate () =
    (* [seq (evaluate a) b]: as a value [evaluate a] is a WHNF
       constructor whatever [a] denotes, so this reaches the
       evaluate_is_seq_return law site in pure terms. *)
    G.map2
      (fun a b -> B.seq (Con (c_evaluate, [ a ])) b)
      (sub T_int) (sub T_int)
  in
  let seq_e () =
    G.map2 (fun a b -> B.seq a b) (sub T_int) (sub T_int)
  in
  let map_exc () =
    G.map2 (fun f e -> B.map_exception f e) gen_mapper (sub T_int)
  in
  let letrec_e () =
    let f = fresh_name () and n = fresh_name () in
    G.oneof
      [
        (* The black hole of Section 5.2: cyclic demand, detectable. *)
        G.return (Letrec ([ (f, B.(var f + int 1)) ], Var f));
        (* Bounded structural recursion through a letrec binder. *)
        G.map2
          (fun base k ->
            Letrec
              ( [
                  ( f,
                    B.lam n
                      (B.if_
                         B.(var n <= int 0)
                         base
                         B.(var n + App (Var f, var n - int 1))) );
                ],
                App (Var f, B.int k) ))
          (gen_leaf cfg env T_int) (G.int_range 0 6);
      ]
  in
  let case_list () =
    let x = fresh_name () and xs = fresh_name () in
    G.map3
      (fun scrut nil_rhs cons_rhs ->
        Case
          ( scrut,
            [
              { pat = Pcon (c_nil, []); rhs = nil_rhs };
              { pat = Pcon (c_cons, [ x; xs ]); rhs = cons_rhs };
            ] ))
      (sub T_list_int) (sub T_int)
      (gen_ty cfg ((x, T_int) :: (xs, T_list_int) :: env) (depth - 1) T_int)
  in
  let prelude_calls =
    if not cfg.use_prelude then []
    else
      [
        ( 2,
          fun () -> G.map (fun l -> App (Var "sum", l)) (sub T_list_int) );
        ( 2,
          fun () -> G.map (fun l -> App (Var "length", l)) (sub T_list_int) );
        ( 1,
          fun () ->
            G.map2
              (fun l n -> B.apps (Var "index") [ l; n ])
              (sub T_list_int) (sub T_int) );
        ( 1,
          fun () -> G.map (fun l -> App (Var "head", l)) (sub T_list_int) );
      ]
  in
  frequency
    ([
       (4, fun () -> gen_leaf cfg env T_int);
       (4, arith);
       (cfg.div_weight, division);
       (3, conditional);
       (2, let_bound);
       (cfg.sharing_weight, shared_let);
       (2, beta_redex);
       (2, apply_fun);
       (1, seq_e);
       (1, seq_evaluate);
       (cfg.map_exception_weight, map_exc);
       (cfg.letrec_weight, letrec_e);
       (2, case_list);
       (cfg.raise_weight, fun () -> gen_exn_site);
     ]
    @ prelude_calls)

and gen_bool_node cfg env depth : expr G.t =
  let sub = gen_ty cfg env (depth - 1) in
  let cmp () =
    G.oneofl
      [ Lang.Prim.Eq; Lang.Prim.Ne; Lang.Prim.Lt; Lang.Prim.Le ]
    |> fun gp -> G.bind gp (fun p ->
           G.map2 (fun a b -> Prim (p, [ a; b ])) (sub T_int) (sub T_int))
  in
  let not_e () = G.map (fun b -> B.if_ b B.false_ B.true_) (sub T_bool) in
  let null_e =
    if cfg.use_prelude then
      [ (1, fun () -> G.map (fun l -> App (Var "null", l)) (sub T_list_int)) ]
    else []
  in
  frequency
    ([ (3, fun () -> gen_leaf cfg env T_bool); (4, cmp); (1, not_e) ] @ null_e)

and gen_list_node cfg env depth : expr G.t =
  let sub = gen_ty cfg env (depth - 1) in
  let cons_e () =
    G.map2 (fun x xs -> B.cons x xs) (sub T_int) (sub T_list_int)
  in
  let shared_cons () =
    (* The same element thunk in two list positions — deep forcing visits
       it twice, exercising update/replay on structured results. *)
    let x = fresh_name () in
    G.map2
      (fun e tail -> Let (x, e, B.cons (Var x) (B.cons (Var x) tail)))
      (sub T_int) (sub T_list_int)
  in
  let map_exc () =
    G.map2 (fun f l -> B.map_exception f l) gen_mapper (sub T_list_int)
  in
  let enum () =
    G.map2
      (fun lo n -> B.apps (Var "enumFromTo") [ B.int lo; B.int (lo + n) ])
      (G.int_range (-5) 5) (G.int_range 0 8)
  in
  let take_e () =
    G.map2
      (fun n l -> B.apps (Var "take") [ B.int n; l ])
      (G.int_range 0 6) (sub T_list_int)
  in
  let map_e () =
    G.map2 (fun f l -> B.apps (Var "map") [ f; l ]) (sub T_fun_ii)
      (sub T_list_int)
  in
  let append_e () =
    G.map2
      (fun a b -> B.apps (Var "append") [ a; b ])
      (sub T_list_int) (sub T_list_int)
  in
  let take_iterate () =
    G.map3
      (fun n f x ->
        B.apps (Var "take") [ B.int n; B.apps (Var "iterate") [ f; x ] ])
      (G.int_range 0 5) (sub T_fun_ii) (sub T_int)
  in
  let prelude =
    if cfg.use_prelude then
      [ (2, enum); (2, take_e); (2, map_e); (1, append_e); (1, take_iterate) ]
    else []
  in
  frequency
    ([
       (3, fun () -> gen_leaf cfg env T_list_int);
       (3, cons_e);
       (cfg.sharing_weight, shared_cons);
       (cfg.map_exception_weight, map_exc);
     ]
    @ prelude)

(* IO Int programs: a bind-chain of actions over the int generator. *)
let rec gen_io_node cfg env depth : expr G.t =
  let int_e () = gen_ty cfg env (max 1 (depth - 1)) T_int in
  let ret () = G.map (fun e -> B.io_return e) (int_e ()) in
  if depth <= 0 then ret ()
  else
    let sub_io ?(env = env) () = gen_io_node cfg env (depth - 1) in
    let bind_chain () =
      let x = fresh_name () in
      G.map2
        (fun m k -> B.io_bind m (B.lam x k))
        (sub_io ())
        (sub_io ~env:((x, T_int) :: env) ())
    in
    let put_then () =
      G.map2
        (fun e rest ->
          B.io_bind
            (App (Var "putInt", e))
            (B.lam "_" rest))
        (int_e ()) (sub_io ())
    in
    let catch_recover () =
      (* getException e >>= \r -> case r of OK v -> return v; Bad _ -> 0 *)
      let r = fresh_name () and v = fresh_name () in
      G.map
        (fun e ->
          B.io_bind
            (B.get_exception e)
            (B.lam r
               (Case
                  ( Var r,
                    [
                      {
                        pat = Pcon (c_ok, [ v ]);
                        rhs = B.io_return (Var v);
                      };
                      {
                        pat = Pcon (c_bad, [ "_e" ]);
                        rhs = B.io_return (B.int 0);
                      };
                    ] ))))
        (int_e ())
    in
    let combinators =
      if not cfg.io_combinators then []
      else
        [
          ( 1,
            (* Sequential channel roundtrip: buffered write then read,
               exercising the channel path of the single-threaded layers. *)
            fun () ->
              let c = fresh_name () and v = fresh_name () in
              G.map2
                (fun e rest ->
                  B.io_bind
                    (Con ("NewChan", [ B.int 1 ]))
                    (B.lam c
                       (B.io_bind
                          (Con ("WriteChan", [ Var c; e ]))
                          (B.lam "_"
                             (B.io_bind
                                (Con ("ReadChan", [ Var c ]))
                                (B.lam v
                                   (B.io_bind
                                      (App (Var "putInt", Var v))
                                      (B.lam "_" rest))))))))
                (int_e ()) (sub_io ()) );
          ( 1,
            (* A read on an empty channel is hopeless in a sequential
               driver: it must come back as a catchable
               BlockedIndefinitely in every layer. *)
            fun () ->
              let c = fresh_name () and rn = fresh_name () in
              G.map
                (fun e ->
                  B.io_bind
                    (Con ("NewChan", [ B.int 1 ]))
                    (B.lam c
                       (B.io_bind
                          (B.get_exception (Con ("ReadChan", [ Var c ])))
                          (B.lam rn
                             (B.case (Var rn)
                                [
                                  (B.pcon "OK" [ "x" ], B.io_return (Var "x"));
                                  (B.pcon "Bad" [ "e" ], B.io_return e);
                                ])))))
                (int_e ()) );
          ( 1,
            (* bracket: acquire returns a resource, release writes a
               marker, use continues the program — releases must balance
               acquires on every exit path. *)
            fun () ->
              let r = fresh_name () in
              G.map2
                (fun a rest ->
                  B.io_bracket (B.io_return a)
                    (B.lam r (App (Var "putInt", B.int 9)))
                    (B.lam r rest))
                (int_e ())
                (sub_io ~env:((r, T_int) :: env) ()) );
          (1, fun () -> G.map (fun m -> B.io_mask m) (sub_io ()));
          ( 1,
            fun () ->
              G.map2
                (fun k m -> B.io_timeout (B.int k) m)
                (G.int_range 1 24) (sub_io ()) );
          ( 1,
            fun () ->
              G.map
                (fun m ->
                  B.io_on_exception m (App (Var "putInt", B.int 8)))
                (sub_io ()) );
          ( 1,
            (* evaluate: the argument is forced at the perform point,
               under the catch when one is present. *)
            fun () ->
              let rn = fresh_name () in
              G.map
                (fun e ->
                  B.io_bind
                    (B.get_exception (Con (c_evaluate, [ e ])))
                    (B.lam rn
                       (B.case (Var rn)
                          [
                            (B.pcon "OK" [ "x" ], App (Var "putInt", Var "x"));
                            (B.pcon "Bad" [ "_e" ],
                             App (Var "putInt", B.int 0));
                          ])))
                (int_e ()) );
          ( 1,
            (* Typed handler dispatch: an arithmetic handler first, the
               catch-all second, over an arbitrary body. *)
            fun () ->
              G.map
                (fun m ->
                  B.apps (Var "catches")
                    [
                      m;
                      B.list
                        [
                          B.apps (Var "handler")
                            [
                              Var "matchArith";
                              B.lam "_e" (B.io_return (B.int 1));
                            ];
                          B.apps (Var "handler")
                            [
                              Var "matchAny";
                              B.lam "_e" (B.io_return (B.int 2));
                            ];
                        ];
                    ])
                (sub_io ()) );
          ( 1,
            (* try: Either-shaped recovery, plus a declared-exception
               throw site under it. *)
            fun () ->
              let rn = fresh_name () in
              G.map2
                (fun e m ->
                  let body =
                    B.io_bind m
                      (B.lam "_"
                         (App (Var "throwIO", Con ("GenExnB", [ e ]))))
                  in
                  B.io_bind
                    (App (Var "try", body))
                    (B.lam rn
                       (B.case (Var rn)
                          [
                            (B.pcon "Left" [ "_e" ],
                             App (Var "putInt", B.int 3));
                            (B.pcon "Right" [ "x" ],
                             App (Var "putInt", Var "x"));
                          ])))
                (int_e ()) (sub_io ()) );
        ]
    in
    frequency
      ([ (2, ret); (3, bind_chain); (3, put_then); (2, catch_recover) ]
      @ combinators)

(* Concurrent programs: forkIO/MVar skeletons whose communication
   structure is fixed (so they do not trivially deadlock) with generated
   payloads. *)
let gen_conc_node cfg env depth : expr G.t =
  let int_e () = gen_ty cfg env (max 1 depth) T_int in
  let sub_io () = gen_io_node cfg env (max 0 (depth - 1)) in
  let handoff () =
    (* newEmptyMVar >>= \r -> forkIO (putMVar r e) >> (takeMVar r >>= putInt) *)
    let r = fresh_name () and v = fresh_name () in
    G.map
      (fun e ->
        B.io_bind
          (Con ("NewMVar", []))
          (B.lam r
             (B.io_bind
                (Con ("Fork", [ Con ("PutMVar", [ Var r; e ]) ]))
                (B.lam "_"
                   (B.io_bind
                      (Con ("TakeMVar", [ Var r ]))
                      (B.lam v (App (Var "putInt", Var v))))))))
      (int_e ())
  in
  let fork_fire_and_forget () =
    G.map2
      (fun e rest ->
        B.io_bind
          (Con ("Fork", [ App (Var "putInt", e) ]))
          (B.lam "_" rest))
      (int_e ()) (sub_io ())
  in
  let fork_exceptional () =
    (* The child dies of its own exception; the parent must survive. *)
    G.map2
      (fun e rest ->
        B.io_bind
          (Con ("Fork", [ B.io_return B.(e / int 0) ]))
          (B.lam "_" rest))
      (int_e ()) (sub_io ())
  in
  let self_throw_caught () =
    (* getException (myThreadId >>= \t -> throwTo t ThreadKilled >> return e)
       — a self-send is synchronous, so both layers catch it as Bad. *)
    let tn = fresh_name () and rn = fresh_name () in
    G.map
      (fun e ->
        B.io_bind
          (B.get_exception
             (B.io_bind
                (Con ("MyThreadId", []))
                (B.lam tn
                   (B.io_bind
                      (Con ("ThrowTo", [ Var tn; Con ("ThreadKilled", []) ]))
                      (B.lam "_" (B.io_return e))))))
          (B.lam rn
             (B.case (Var rn)
                [
                  (B.pcon "OK" [ "x" ], App (Var "putInt", Var "x"));
                  (B.pcon "Bad" [ "e" ], App (Var "putInt", B.int 0));
                ])))
      (int_e ())
  in
  let kill_child () =
    (* The child hands its ThreadId to the parent, which kills it; the
       parent's continuation must survive the dead child. *)
    let r = fresh_name () and tn = fresh_name () in
    G.map2
      (fun e rest ->
        B.io_bind
          (Con ("NewMVar", []))
          (B.lam r
             (B.io_bind
                (Con
                   ( "Fork",
                     [
                       B.io_bind
                         (Con ("MyThreadId", []))
                         (B.lam tn
                            (B.io_bind
                               (Con ("PutMVar", [ Var r; Var tn ]))
                               (B.lam "_" (App (Var "putInt", e)))));
                     ] ))
                (B.lam "_"
                   (B.io_bind
                      (Con ("TakeMVar", [ Var r ]))
                      (B.lam tn
                         (B.io_bind
                            (Con
                               ( "ThrowTo",
                                 [ Var tn; Con ("ThreadKilled", []) ] ))
                            (B.lam "_" rest))))))))
      (int_e ()) (sub_io ())
  in
  let blocked_recover () =
    (* Nobody ever puts: the blocked take must come back as a catchable
       BlockedIndefinitely, never a global deadlock. *)
    let r = fresh_name () and rn = fresh_name () in
    G.map
      (fun e ->
        B.io_bind
          (Con ("NewMVar", []))
          (B.lam r
             (B.io_bind
                (B.get_exception (Con ("TakeMVar", [ Var r ])))
                (B.lam rn
                   (B.case (Var rn)
                      [
                        (B.pcon "OK" [ "x" ], App (Var "putInt", Var "x"));
                        (B.pcon "Bad" [ "e" ], App (Var "putInt", e));
                      ])))))
      (int_e ())
  in
  let chan_handoff () =
    (* newChan 1 >>= \c -> forkIO (writeChan c e) >> (readChan c >>= putInt) *)
    let c = fresh_name () and v = fresh_name () in
    G.map
      (fun e ->
        B.io_bind
          (Con ("NewChan", [ B.int 1 ]))
          (B.lam c
             (B.io_bind
                (Con ("Fork", [ Con ("WriteChan", [ Var c; e ]) ]))
                (B.lam "_"
                   (B.io_bind
                      (Con ("ReadChan", [ Var c ]))
                      (B.lam v (App (Var "putInt", Var v))))))))
      (int_e ())
  in
  let chan_fan_in () =
    (* Two producers into a buffer of one: the second writer blocks on the
       full buffer and is woken when the drain makes room, so the wake
       path and the deposit-on-wake path both run. *)
    let c = fresh_name () and v = fresh_name () and w = fresh_name () in
    G.map2
      (fun e1 e2 ->
        B.io_bind
          (Con ("NewChan", [ B.int 1 ]))
          (B.lam c
             (B.io_bind
                (Con ("Fork", [ Con ("WriteChan", [ Var c; e1 ]) ]))
                (B.lam "_"
                   (B.io_bind
                      (Con ("Fork", [ Con ("WriteChan", [ Var c; e2 ]) ]))
                      (B.lam "_"
                         (B.io_bind
                            (Con ("ReadChan", [ Var c ]))
                            (B.lam v
                               (B.io_bind
                                  (Con ("ReadChan", [ Var c ]))
                                  (B.lam w
                                     (B.io_bind
                                        (App (Var "putInt", Var v))
                                        (B.lam "_"
                                           (App (Var "putInt", Var w))))))))))))))
      (int_e ()) (int_e ())
  in
  let chan_blocked_recover () =
    (* Nobody ever writes: the blocked read must come back as a catchable
       BlockedIndefinitely, like the MVar case above. *)
    let c = fresh_name () and rn = fresh_name () in
    G.map
      (fun e ->
        B.io_bind
          (Con ("NewChan", [ B.int 1 ]))
          (B.lam c
             (B.io_bind
                (B.get_exception (Con ("ReadChan", [ Var c ])))
                (B.lam rn
                   (B.case (Var rn)
                      [
                        (B.pcon "OK" [ "x" ], App (Var "putInt", Var "x"));
                        (B.pcon "Bad" [ "e" ], App (Var "putInt", e));
                      ])))))
      (int_e ())
  in
  let supervised () =
    (* A two-child supervision tree under a chosen strategy: one healthy
       child and one that either also completes or storms. Any
       SupervisorLimit shed by the intensity window is absorbed, so the
       observable is just the completion marker — identical under every
       fair schedule. *)
    let strat =
      G.oneofl
        [ Con ("OneForOne", []); Con ("OneForAll", []); Con ("RestForOne", []) ]
    in
    G.bind strat (fun s ->
        G.map2
          (fun e bad ->
            let child_ok = B.io_return e in
            let child_other =
              if bad then App (Var "throwIO", Con ("GenExnA", []))
              else B.io_return (B.int 0)
            in
            let sup =
              B.apps (Var "supervisorTree")
                [ s; B.int 2; B.int 8; B.list [ child_ok; child_other ] ]
            in
            B.io_bind
              (B.apps (Var "catchIO")
                 [ sup; B.lam "_e" (B.io_return B.unit_) ])
              (B.lam "_" (App (Var "putInt", B.int 1))))
          (int_e ()) G.bool)
  in
  frequency
    [
      (3, handoff);
      (2, fork_fire_and_forget);
      (1, fork_exceptional);
      (2, self_throw_caught);
      (2, kill_child);
      (1, blocked_recover);
      (2, chan_handoff);
      (1, chan_fan_in);
      (1, chan_blocked_recover);
      (1, supervised);
    ]

(* Size accounting: QCheck2's [sized] parameter maps *monotonically* to
   generation depth, so integrated shrinking of the size genuinely
   reduces the term (the previous [n mod k] mapping made shrinking
   regenerate at unrelated depths instead of reducing). *)
let depth_of_size cfg n = min cfg.max_depth (1 + (n / 24))

let gen_io ?(cfg = default_cfg) () =
  G.sized (fun n -> gen_io_node cfg [] (min 4 (depth_of_size cfg n)))

let gen_conc ?(cfg = default_cfg) () =
  G.sized (fun n -> gen_conc_node cfg [] (min 3 (depth_of_size cfg n)))

let gen ?(cfg = default_cfg) ty =
  G.sized (fun n -> gen_ty cfg [] (depth_of_size cfg n) ty)

let gen_int ?cfg () = gen ?cfg T_int
let gen_list ?cfg () = gen ?cfg T_list_int

let print_expr = Lang.Pretty.expr_to_string

(* ------------------------------------------------------------------ *)
(* Structural shrinking                                                *)
(* ------------------------------------------------------------------ *)

let replace_nth i x xs = List.mapi (fun j y -> if j = i then x else y) xs

(* Immediate subexpressions with their one-hole rebuilding contexts. *)
let children_with_context (e : expr) : (expr * (expr -> expr)) list =
  match e with
  | Var _ | Lit _ -> []
  | Lam (x, b) -> [ (b, fun b' -> Lam (x, b')) ]
  | App (f, a) ->
      [ (f, (fun f' -> App (f', a))); (a, fun a' -> App (f, a')) ]
  | Con (c, es) ->
      List.mapi (fun i ei -> (ei, fun e' -> Con (c, replace_nth i e' es))) es
  | Prim (p, es) ->
      List.mapi (fun i ei -> (ei, fun e' -> Prim (p, replace_nth i e' es))) es
  | Case (s, alts) ->
      (s, (fun s' -> Case (s', alts)))
      :: List.mapi
           (fun i a ->
             ( a.rhs,
               fun r -> Case (s, replace_nth i { a with rhs = r } alts) ))
           alts
  | Let (x, e1, e2) ->
      [
        (e1, (fun e1' -> Let (x, e1', e2)));
        (e2, fun e2' -> Let (x, e1, e2'));
      ]
  | Letrec (binds, body) ->
      (body, (fun b' -> Letrec (binds, b')))
      :: List.mapi
           (fun i (x, ei) ->
             (ei, fun e' -> Letrec (replace_nth i (x, e') binds, body)))
           binds
  | Raise e1 -> [ (e1, fun e' -> Raise e') ]
  | Fix e1 -> [ (e1, fun e' -> Fix e') ]

(* Close an alternative's right-hand side by plugging its binders with a
   literal, so it is a shrink candidate for the whole case. *)
let close_rhs (a : alt) =
  let plugs =
    List.map (fun x -> (x, Lit (Lit_int 0))) (pat_binders a.pat)
  in
  Lang.Subst.subst_many plugs a.rhs

let rec shrink (e : expr) : expr list =
  let special =
    match e with
    | Lit (Lit_int n) when n <> 0 ->
        if n / 2 <> 0 && n / 2 <> n then [ B.int 0; B.int (n / 2) ]
        else [ B.int 0 ]
    | Lit (Lit_string s) when String.length s > 0 -> [ B.str "" ]
    | App (Lam (x, b), a) -> [ Lang.Subst.subst x a b ]
    | Let (x, e1, e2) ->
        if Lang.Subst.is_free_in x e2 then [ Lang.Subst.subst x e1 e2 ]
        else [ e2 ]
    | Letrec (binds, body)
      when not
             (List.exists
                (fun (x, _) -> Lang.Subst.is_free_in x body)
                binds) ->
        [ body ]
    | Case (s, alts) -> s :: List.map close_rhs alts
    | Lam (x, b) -> [ b; Lang.Subst.subst x (B.int 0) b ]
    | Fix e1 -> [ e1 ]
    | Raise _ -> [ B.raise_exn Lang.Exn.Divide_by_zero ]
    | _ -> []
  in
  let subterms = List.map fst (children_with_context e) in
  let recursive =
    List.concat_map
      (fun (c, ctx) -> List.map ctx (shrink_shallow c))
      (children_with_context e)
  in
  let n = size e in
  let ok c =
    match (e, c) with
    | Lit (Lit_int a), Lit (Lit_int b) -> abs b < abs a
    | _ -> size c < n
  in
  (* Every candidate strictly decreases (size, |literal|): any greedy
     minimisation loop over [shrink] terminates. Smaller candidates are
     sorted first so the minimiser reaches small witnesses quickly. *)
  let cands =
    List.filter ok (special @ subterms @ recursive)
    |> List.filter (fun c -> size c <= n)
    |> List.sort_uniq (fun a b ->
           match Stdlib.compare (size a) (size b) with
           | 0 -> Lang.Syntax.compare a b
           | c -> c)
  in
  cands

(* One non-recursive level, used inside [shrink] to bound the candidate
   fan-out (full recursion re-enters through the minimiser's loop). *)
and shrink_shallow (e : expr) : expr list =
  match e with
  | Lit (Lit_int n) when n <> 0 -> [ B.int 0 ]
  | App (Lam (x, b), a) -> [ Lang.Subst.subst x a b ]
  | Let (x, _, e2) when not (Lang.Subst.is_free_in x e2) -> [ e2 ]
  | Case (s, _) -> [ s ]
  | _ -> List.map fst (children_with_context e)
