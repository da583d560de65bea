(* The resolution (compile-to-slots) pass: one walk over {!Syntax.expr}
   that eliminates every runtime string operation the abstract machine
   used to pay for.

   - Variable occurrences become lexical slot references: a (frame,
     offset) pair into a chain of array-backed environment frames.
   - Constructor names are interned into integer tags through a global
     table seeded with {!Con_info.builtin_list}, so constructor dispatch
     (including the IO drivers' [Return]/[Bind]/... matching) is integer
     comparison.
   - Every heap-allocation site (let right-hand sides, application and
     constructor arguments, letrec bindings) and every lambda gets its
     free-variable footprint precomputed as an array of slot references,
     so closures capture a compact [addr array] instead of a whole
     name-keyed map.

   Scoping mirrors the name-based machine exactly, including its lazy
   treatment of unbound variables: an out-of-scope name resolves to
   {!RUnbound}, which raises [TypeError "unbound variable ..."] only if
   the occurrence is actually evaluated. *)

open Syntax

type slot = { frame : int; idx : int }
(** A resolved variable occurrence: walk [frame] environment links
    outward, then read array index [idx]. *)

type rexpr =
  | RVar of slot
  | RUnbound of string
      (** Out-of-scope name; raises [TypeError] if evaluated (the
          name-based machine's behaviour, preserved for dead code). *)
  | RLit of lit
  | RLam of lam
  | RApp of rexpr * arg
  | RCon of int * arg array  (** Interned constructor tag. *)
  | RCase of rexpr * ralt array
  | RLet of arg * rexpr  (** Body runs under one pushed 1-slot frame. *)
  | RLetrec of tspec array * rexpr
  | RPrim of Prim.t * rexpr list
  | RMapexn of arg * rexpr
  | RIsexn of rexpr
  | RGetexn of rexpr
  | RRaise of string * rexpr
      (** The string is the raise site's static label (site number plus
          a hint of the raised expression), threaded into the machine's
          exception provenance. *)

and arg =
  | Aslot of slot
      (** The argument is a variable: reuse its heap address directly
          (the machine's [alloc_in] fast path, now decided statically). *)
  | Athunk of tspec

and tspec = { caps : slot array; tbody : rexpr }
(** A thunk template: at allocation time the capture array is filled by
    reading [caps] from the current environment; [tbody] is compiled
    against a single frame holding exactly those captures. *)

and lam = { lcaps : slot array; lbody : rexpr; lname : string }
(** A lambda: evaluating it captures [lcaps] into a flat array; applying
    the closure runs [lbody] under a 1-slot argument frame chained onto
    the capture frame. *)

and ralt = { rpat : rpat; rrhs : rexpr }

and rpat =
  | Rpcon of int * int  (** tag, binder count *)
  | Rplit of lit
  | Rpany of bool  (** [true] when the wildcard binds the scrutinee. *)

(* ------------------------------------------------------------------ *)
(* Constructor interning                                               *)
(* ------------------------------------------------------------------ *)

(* The interning state is an explicit context record, not module-level
   globals: the serve daemon's re-entrancy audit requires that nothing a
   machine touches is hidden process state. One shared [global_context]
   remains the default everywhere (the compiled-program cache and the
   cross-machine differentials depend on tags meaning the same thing in
   every machine), but an embedder can sandbox with [new_context] — and
   because every context pre-interns {!Con_info.builtin_list} in the
   same order, the [t_*] tags below are valid in all of them. *)
type context = {
  con_table : (string, int) Hashtbl.t;
  con_names : (int, string) Hashtbl.t;
  mutable next_tag : int;
  mutable image : image option;  (* built on first use, see {!expr} *)
}

(* The Prelude letrec resolved once per context: every closed program is
   [letrec <Prelude> in e], and the Prelude half of its IR is the same
   for every [e]. *)
and image = {
  specs : tspec array;  (* the Prelude bindings' thunk templates *)
  frame : string array;  (* their names: the root frame of [e] *)
  sites : int;  (* raise sites numbered inside the Prelude *)
}

let new_context () =
  let ctx =
    {
      con_table = Hashtbl.create 64;
      con_names = Hashtbl.create 64;
      next_tag = 0;
      image = None;
    }
  in
  List.iter
    (fun (c, _) ->
      let t = ctx.next_tag in
      ctx.next_tag <- t + 1;
      Hashtbl.add ctx.con_table c t;
      Hashtbl.add ctx.con_names t c)
    Con_info.builtin_list;
  ctx

let global_context = new_context ()

let con_tag ?(ctx = global_context) c =
  match Hashtbl.find_opt ctx.con_table c with
  | Some t -> t
  | None ->
      let t = ctx.next_tag in
      ctx.next_tag <- t + 1;
      Hashtbl.add ctx.con_table c t;
      Hashtbl.add ctx.con_names t c;
      t

let con_name ?(ctx = global_context) t =
  match Hashtbl.find_opt ctx.con_names t with
  | Some c -> c
  | None -> Printf.sprintf "<con:%d>" t

let t_true = con_tag c_true
let t_false = con_tag c_false
let t_nil = con_tag c_nil
let t_cons = con_tag c_cons
let t_unit = con_tag c_unit
let t_pair = con_tag c_pair
let t_ok = con_tag c_ok
let t_bad = con_tag c_bad
let t_just = con_tag c_just
let t_nothing = con_tag c_nothing
let t_return = con_tag c_return
let t_bind = con_tag c_bind
let t_get_char = con_tag c_get_char
let t_put_char = con_tag c_put_char
let t_get_exception = con_tag c_get_exception
let t_bracket = con_tag c_bracket
let t_on_exception = con_tag c_on_exception
let t_mask = con_tag c_mask
let t_unmask = con_tag c_unmask
let t_timeout = con_tag c_timeout
let t_retry = con_tag c_retry
let t_fork = con_tag "Fork"
let t_new_mvar = con_tag "NewMVar"
let t_take_mvar = con_tag "TakeMVar"
let t_put_mvar = con_tag "PutMVar"
let t_mvar_ref = con_tag "MVarRef"
let t_my_thread_id = con_tag "MyThreadId"
let t_throw_to = con_tag "ThrowTo"
let t_thread_id = con_tag "ThreadId"
let t_new_chan = con_tag "NewChan"
let t_read_chan = con_tag "ReadChan"
let t_write_chan = con_tag "WriteChan"
let t_chan_ref = con_tag "ChanRef"
let t_evaluate = con_tag c_evaluate

let io_action_tags =
  [
    t_return; t_bind; t_get_char; t_put_char; t_get_exception; t_bracket;
    t_on_exception; t_mask; t_unmask; t_timeout; t_retry; t_fork;
    t_new_mvar; t_take_mvar; t_put_mvar; t_my_thread_id; t_throw_to;
    t_new_chan; t_read_chan; t_write_chan; t_evaluate;
  ]

let is_io_action_tag t = List.mem t io_action_tags

(* ------------------------------------------------------------------ *)
(* Free variables                                                      *)
(* ------------------------------------------------------------------ *)

module S = Set.Make (String)

(* The free variables of every node of a term, computed in one bottom-up
   pass and kept as a tree the resolver walks in lockstep with the term:
   [sub] holds the children's sets in the order {!annotate} lists them.
   Recomputing a node's free variables at each capture point instead
   costs the size of the subtree every time, which is quadratic on deep
   terms such as long list literals. *)
type fvs = { fv : S.t; sub : fvs array }

let leaf fv = { fv; sub = [||] }
let union_all subs = Array.fold_left (fun s a -> S.union s a.fv) S.empty subs

let rec annotate (e : expr) : fvs =
  match e with
  | Var x -> leaf (S.singleton x)
  | Lit _ -> leaf S.empty
  | Lam (x, b) ->
      let ab = annotate b in
      { fv = S.remove x ab.fv; sub = [| ab |] }
  | App (f, a) ->
      let sub = [| annotate f; annotate a |] in
      { fv = union_all sub; sub }
  | Con (_, es) | Prim (_, es) ->
      let sub = Array.of_list (List.map annotate es) in
      { fv = union_all sub; sub }
  | Case (scrut, alts) ->
      let sc = annotate scrut in
      let rhss = List.map (fun a -> annotate a.rhs) alts in
      let fv =
        List.fold_left2
          (fun acc a ra ->
            S.union acc (S.diff ra.fv (S.of_list (pat_binders a.pat))))
          sc.fv alts rhss
      in
      { fv; sub = Array.of_list (sc :: rhss) }
  | Let (x, e1, e2) ->
      let a1 = annotate e1 and a2 = annotate e2 in
      { fv = S.union a1.fv (S.remove x a2.fv); sub = [| a1; a2 |] }
  | Letrec (binds, body) ->
      let sub =
        Array.of_list
          (List.map (fun (_, rhs) -> annotate rhs) binds @ [ annotate body ])
      in
      { fv = S.diff (union_all sub) (S.of_list (List.map fst binds)); sub }
  | Raise e1 | Fix e1 ->
      let a1 = annotate e1 in
      { fv = a1.fv; sub = [| a1 |] }

(* ------------------------------------------------------------------ *)
(* Scope: a static image of the runtime frame chain                    *)
(* ------------------------------------------------------------------ *)

(* Innermost frame first. Within a frame, later binders shadow earlier
   ones (the map-based machine folded [Env_map.add] left to right), so
   frames are scanned right to left. *)
type scope = string array list

let find_slot (scope : scope) (x : string) : slot option =
  let rec in_frame (arr : string array) i =
    if i < 0 then None
    else if String.equal arr.(i) x then Some i
    else in_frame arr (i - 1)
  in
  let rec go frame = function
    | [] -> None
    | arr :: rest -> (
        match in_frame arr (Array.length arr - 1) with
        | Some idx -> Some { frame; idx }
        | None -> go (frame + 1) rest)
  in
  go 0 scope

(* The ordered capture list of a node under a scope: its free variables
   that are actually in scope (out-of-scope names stay free and resolve
   to [RUnbound] inside the body). Order is the set's (sorted) order —
   deterministic, and mirrored by the body scope. *)
let captures (scope : scope) (fv : S.t) : string array * slot array =
  let found =
    S.fold
      (fun x acc ->
        match find_slot scope x with Some s -> (x, s) :: acc | None -> acc)
      fv []
    |> List.rev
  in
  (Array.of_list (List.map fst found), Array.of_list (List.map snd found))

(* ------------------------------------------------------------------ *)
(* Raise-site labels                                                   *)
(* ------------------------------------------------------------------ *)

(* Each [raise] occurrence gets a site number scoped to the top-level
   {!expr} call plus a hint of what it raises, so exception provenance
   can name the site: "raise#3:UserError". Numbering starts at 0 for
   every resolution (a program linked against the Prelude image
   continues from the image's count, which is where resolving the
   Prelude in place would have left it), so resolving the same source
   twice yields structurally identical IR — the property the serve
   daemon's compiled-program cache keys on (a cache hit and a fresh
   resolution must be indistinguishable, provenance labels included). *)
type pass_state = { rctx : context; mutable next_site : int }

let raise_label (st : pass_state) (e : expr) : string =
  let n = st.next_site in
  st.next_site <- n + 1;
  let hint =
    match e with
    | Con (c, _) -> ":" ^ c
    | Var x -> ":" ^ x
    | _ -> ""
  in
  Printf.sprintf "raise#%d%s" n hint

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

(* Each case takes the node's free-variable tree [a] alongside it. *)
let rec resolve (st : pass_state) (scope : scope) (e : expr) (a : fvs) :
    rexpr =
  match e with
  | Var x -> (
      match find_slot scope x with
      | Some s -> RVar s
      | None -> RUnbound x)
  | Lit l -> RLit l
  | Lam (x, body) ->
      let names, lcaps = captures scope a.fv in
      RLam
        {
          lcaps;
          lbody = resolve st [ [| x |]; names ] body a.sub.(0);
          lname = x;
        }
  | App (f, x) ->
      RApp (resolve st scope f a.sub.(0), resolve_arg st scope x a.sub.(1))
  | Con (c, es) ->
      RCon
        ( con_tag ~ctx:st.rctx c,
          Array.of_list
            (List.mapi (fun i e -> resolve_arg st scope e a.sub.(i)) es) )
  | Case (scrut, alts) ->
      RCase
        ( resolve st scope scrut a.sub.(0),
          Array.of_list
            (List.mapi
               (fun i alt -> resolve_alt st scope alt a.sub.(i + 1))
               alts) )
  | Let (x, e1, e2) ->
      RLet
        ( resolve_arg st scope e1 a.sub.(0),
          resolve st ([| x |] :: scope) e2 a.sub.(1) )
  | Letrec (binds, body) ->
      let frame = Array.of_list (List.map fst binds) in
      let scope' = frame :: scope in
      let specs = letrec_specs st scope' binds a.sub in
      RLetrec (specs, resolve st scope' body a.sub.(Array.length frame))
  | Fix e1 ->
      (* fix e ≡ letrec x = e x in x — the machine's own reading,
         desugared here so the IR needs no fixpoint node. *)
      let a1 = a.sub.(0) and v = leaf (S.singleton "$fix") in
      let app = { fv = S.add "$fix" a1.fv; sub = [| a1; v |] } in
      resolve st scope
        (Letrec ([ ("$fix", App (e1, Var "$fix")) ], Var "$fix"))
        { fv = a1.fv; sub = [| app; v |] }
  | Raise e1 -> RRaise (raise_label st e1, resolve st scope e1 a.sub.(0))
  | Prim (Prim.Map_exception, [ f; v ]) ->
      RMapexn (resolve_arg st scope f a.sub.(0), resolve st scope v a.sub.(1))
  | Prim (Prim.Unsafe_is_exception, [ v ]) ->
      RIsexn (resolve st scope v a.sub.(0))
  | Prim (Prim.Unsafe_get_exception, [ v ]) ->
      RGetexn (resolve st scope v a.sub.(0))
  | Prim (p, es) ->
      RPrim (p, List.mapi (fun i e -> resolve st scope e a.sub.(i)) es)

and resolve_arg st scope e a =
  match e with
  | Var x -> (
      (* alloc_in's "variables are already in the heap" fast path,
         decided once at compile time instead of per allocation. *)
      match find_slot scope x with
      | Some s -> Aslot s
      | None -> Athunk { caps = [||]; tbody = RUnbound x })
  | _ -> Athunk (thunk_spec st scope e a)

and thunk_spec st scope e a =
  let names, caps = captures scope a.fv in
  { caps; tbody = resolve st [ names ] e a }

(* A letrec's binding templates, in binding order, under the scope that
   already holds the letrec's own frame; [subs.(i)] is binding [i]'s
   free-variable tree. *)
and letrec_specs st scope binds subs =
  Array.of_list
    (List.mapi (fun i (_, rhs) -> thunk_spec st scope rhs subs.(i)) binds)

and resolve_alt st scope (alt : alt) a : ralt =
  match alt.pat with
  | Pcon (c, xs) ->
      let n = List.length xs in
      let scope' = if n = 0 then scope else Array.of_list xs :: scope in
      {
        rpat = Rpcon (con_tag ~ctx:st.rctx c, n);
        rrhs = resolve st scope' alt.rhs a;
      }
  | Plit l -> { rpat = Rplit l; rrhs = resolve st scope alt.rhs a }
  | Pany None -> { rpat = Rpany false; rrhs = resolve st scope alt.rhs a }
  | Pany (Some x) ->
      { rpat = Rpany true; rrhs = resolve st ([| x |] :: scope) alt.rhs a }

(* ------------------------------------------------------------------ *)
(* The Prelude image                                                   *)
(* ------------------------------------------------------------------ *)

(* The specs array of every image built so far, for
   {!is_prelude_image}. Compilation is context-free, so a backend sees a
   program's root letrec without its context; this identity set is how
   it tells an image from any other letrec. One entry per context that
   has resolved a Prelude-closed program. *)
let images : tspec array list ref = ref []

let is_prelude_image specs = List.exists (fun s -> s == specs) !images

(* Built on first use, never at library initialisation: a process that
   resolves no Prelude-closed program never pays for it. Resolving the
   bindings under their own frame with a fresh site counter is exactly
   what resolving [Prelude.wrap e] does before it reaches [e]. *)
let prelude_image ctx =
  match ctx.image with
  | Some im -> im
  | None ->
      let st = { rctx = ctx; next_site = 0 } in
      let frame = Array.of_list Prelude.names in
      let subs =
        Array.of_list (List.map (fun (_, rhs) -> annotate rhs) Prelude.defs)
      in
      let specs = letrec_specs st [ frame ] Prelude.defs subs in
      let im = { specs; frame; sites = st.next_site } in
      ctx.image <- Some im;
      images := specs :: !images;
      im

let expr ?(ctx = global_context) (e : expr) : rexpr =
  match e with
  | Letrec (binds, body) when binds == Prelude.defs ->
      (* The same physical test as the linter's [Pristine]: only the
         shared defs list is known to be the Prelude. *)
      let im = prelude_image ctx in
      RLetrec
        ( im.specs,
          resolve
            { rctx = ctx; next_site = im.sites }
            [ im.frame ] body (annotate body) )
  | _ -> resolve { rctx = ctx; next_site = 0 } [] e (annotate e)

(* ------------------------------------------------------------------ *)
(* Static accounting (for tests and docs)                              *)
(* ------------------------------------------------------------------ *)

let rec count_nodes (r : rexpr) : int =
  let arg = function Aslot _ -> 1 | Athunk t -> 1 + count_nodes t.tbody in
  match r with
  | RVar _ | RUnbound _ | RLit _ -> 1
  | RLam l -> 1 + count_nodes l.lbody
  | RApp (f, a) -> 1 + count_nodes f + arg a
  | RCon (_, args) -> Array.fold_left (fun acc a -> acc + arg a) 1 args
  | RCase (s, alts) ->
      Array.fold_left
        (fun acc a -> acc + count_nodes a.rrhs)
        (1 + count_nodes s) alts
  | RLet (a, b) -> 1 + arg a + count_nodes b
  | RLetrec (specs, b) ->
      Array.fold_left
        (fun acc t -> acc + count_nodes t.tbody)
        (1 + count_nodes b) specs
  | RPrim (_, es) -> List.fold_left (fun acc e -> acc + count_nodes e) 1 es
  | RMapexn (a, v) -> 1 + arg a + count_nodes v
  | RIsexn v | RGetexn v | RRaise (_, v) -> 1 + count_nodes v

let rec unbound (r : rexpr) : string list =
  let arg = function Aslot _ -> [] | Athunk t -> unbound t.tbody in
  match r with
  | RUnbound x -> [ x ]
  | RVar _ | RLit _ -> []
  | RLam l -> unbound l.lbody
  | RApp (f, a) -> unbound f @ arg a
  | RCon (_, args) -> Array.to_list args |> List.concat_map arg
  | RCase (s, alts) ->
      unbound s
      @ (Array.to_list alts |> List.concat_map (fun a -> unbound a.rrhs))
  | RLet (a, b) -> arg a @ unbound b
  | RLetrec (specs, b) ->
      (Array.to_list specs |> List.concat_map (fun t -> unbound t.tbody))
      @ unbound b
  | RPrim (_, es) -> List.concat_map unbound es
  | RMapexn (a, v) -> arg a @ unbound v
  | RIsexn v | RGetexn v | RRaise (_, v) -> unbound v
