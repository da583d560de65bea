type t = {
  rng : int64 ref option;  (** [None] = deterministic-first policy. *)
  mutable script : Lang.Exn.t list;  (** Exceptions still to replay. *)
  mutable off_script : (Lang.Exn.t * Exn_set.t) list;  (** Newest first. *)
}

let create ~seed =
  {
    rng = Some (ref (Int64.of_int (seed lxor 0x2545F4914F6CDD1D)));
    script = [];
    off_script = [];
  }

let first () = { rng = None; script = []; off_script = [] }

let replay ?uncaught tr =
  (* A recorder that overflowed has lost the head of the script, and a
     misaligned script is worse than none. *)
  if Obs.seen tr > Obs.capacity tr then first ()
  else
    let caught =
      List.filter_map
        (function Obs.Ev_catch (Some e) -> Some e | _ -> None)
        (Obs.events tr)
    in
    let script =
      List.filter Lang.Exn.is_synchronous (caught @ Option.to_list uncaught)
    in
    { (first ()) with script }

let off_script o = List.rev o.off_script

let next_bits o =
  match o.rng with
  | None -> 0
  | Some st ->
      st :=
        Int64.add
          (Int64.mul !st 6364136223846793005L)
          1442695040888963407L;
      Int64.to_int (Int64.shift_right_logical !st 33)

let int_below o n = if n <= 0 then 0 else next_bits o mod n

let coin o = int_below o 2 = 0

let pick o = function
  | [] -> None
  | xs -> Some (List.nth xs (int_below o (List.length xs)))

let pick_default o (s : Exn_set.t) =
  match s with
  | Exn_set.All -> (
      (* Section 5.3: getException applied to bottom is justified in
         returning any exception at all. *)
      let candidates = List.filter Lang.Exn.is_synchronous Lang.Exn.all_known in
      match pick o candidates with
      | Some e -> e
      | None -> Lang.Exn.Non_termination)
  | Exn_set.Finite _ -> (
      match Exn_set.elements s with
      | Some [] | None -> Lang.Exn.Non_termination
      | Some es -> ( match pick o es with Some e -> e | None -> assert false))

let pick_exception o (s : Exn_set.t) =
  match o.script with
  | x :: rest when Exn_set.mem x s ->
      o.script <- rest;
      x
  | x :: _ ->
      (* The head stays on the script: this pick may have no counterpart
         in the replayed run (a thread that dies uncaught records no
         catch), so consuming it could misalign every later pick. *)
      o.off_script <- (x, s) :: o.off_script;
      pick_default o s
  | [] -> pick_default o s

let diverge_on_non_termination o s =
  match o.rng with
  | None -> false
  | Some _ -> Exn_set.has_non_termination s && coin o
