open Imprecise
open Helpers

(* Generator output pinned by seed. [gen_golden.txt] holds, for every
   kind below, [per_kind] terms drawn from [Random.State.make [| i |]],
   one per line as [kind i term]. Binders are renamed canonically
   ({!Subst.rename_bound}) and whitespace is collapsed, so the file pins
   every random choice and the shape of every term but not the counter
   behind the generator's fresh names. The file was written by the
   generator that built every alternative up front; equality shows that
   building only the drawn alternative changed no choice. Regenerate it
   only for a deliberate change to the generated distribution, by
   printing [golden_lines ()]. *)

let per_kind = 20

let kinds =
  [
    ("int", Gen.gen_int ());
    ("bool", Gen.gen Gen.T_bool);
    ("list", Gen.gen_list ());
    ("fun", Gen.gen Gen.T_fun_ii);
    ("io", Gen.gen_io ());
    ("conc", Gen.gen_conc ());
  ]

let collapse_whitespace s =
  String.split_on_char '\n' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun w -> w <> "")
  |> String.concat " "

let golden_lines () =
  List.concat_map
    (fun (kind, gen) ->
      List.init per_kind (fun i ->
          let e =
            QCheck2.Gen.generate1 ~rand:(Random.State.make [| i |]) gen
          in
          Printf.sprintf "%s %d %s" kind i
            (collapse_whitespace
               (Pretty.expr_to_string (Subst.rename_bound e)))))
    kinds

let suite =
  [
    tc "seeded terms match the pinned golden file" (fun () ->
        let expected =
          In_channel.with_open_text "gen_golden.txt" In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        let actual = golden_lines () in
        Alcotest.(check int) "line count" (List.length expected)
          (List.length actual);
        List.iter2
          (fun e a -> Alcotest.(check string) "golden term" e a)
          expected actual);
    tc "max_depth 8 terms generate in milliseconds" (fun () ->
        (* Building every alternative up front made construction
           exponential in depth, so depth 8 could not finish; built
           lazily, the cost is the drawn path. About a quarter of the
           drawn sizes are 168 or more, which map to depth 8; on these
           seeds max_depth 4 nests at most 10 deep. *)
        let cfg = { Gen.default_cfg with Gen.max_depth = 8 } in
        let t0 = Unix.gettimeofday () in
        let deepest =
          List.fold_left
            (fun m (ty, i) ->
              let e =
                QCheck2.Gen.generate1 ~rand:(Random.State.make [| i |])
                  (Gen.gen ~cfg ty)
              in
              max m (Syntax.depth e))
            0
            (List.concat_map
               (fun ty -> List.init 25 (fun i -> (ty, i)))
               [ Gen.T_int; Gen.T_list_int ])
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "deepest term nests %d deep" deepest)
          true (deepest > 12);
        Alcotest.(check bool)
          (Printf.sprintf "50 depth-8 terms in %.2f s" elapsed)
          true (elapsed < 5.0));
  ]
