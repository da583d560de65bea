(* The repository benchmark's entry point. See NOTES.md for the workloads,
   the metrics and how each layer maps onto them.

   bench.exe run --workload W --seed N --seconds S --trace 0|1 [--tiny]
     measures one workload; the last line of stdout is the result.
   bench.exe setup --workload W --seed N
     one serve set-up (engines created, caches warmed), then exits;
     [run] times several of these in fresh processes.
   bench.exe inputs --workload W --seed N --count K
     prints the first K generated serve inputs (self-tests). *)

open Report

(* Set-ups per run: more of the short ones, whose times are noisier. *)
let setup_repeats ~tiny workload =
  if tiny then 1
  else match workload with "serve-cold" -> 41 | _ -> 9

(* One serve set-up timed from outside: a fresh process start-up, the
   library's initialisation, both engines and their warm-up. *)
let timed_setup ~workload ~seed =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "setup"; "--workload"; workload; "--seed";
         string_of_int seed |]
      devnull devnull Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let t1 = now () in
  Unix.close devnull;
  if status <> Unix.WEXITED 0 then failwith "set-up process failed";
  ms t0 t1 /. 1e3

(* Seconds of the other family's traced run in a traced run. *)
let other_seconds = 4.0

let usage () =
  prerr_endline
    "usage: bench.exe (run|setup|inputs) --workload W --seed N [--seconds S] \
     [--trace 0|1] [--count K] [--tiny]";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let cmd = match args with _ :: c :: _ -> c | _ -> usage () in
  let rec opt k = function
    | x :: v :: _ when x = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let get k = match opt k args with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let seed = int_of_string (get "--seed") in
  let tiny = List.mem "--tiny" args in
  let serve_wl = Serve_load.workload_of_string workload in
  if serve_wl = None && workload <> "fuzz" then begin
    prerr_endline ("unknown workload " ^ workload);
    exit 2
  end;
  match (cmd, serve_wl) with
  | "setup", Some wl -> ignore (Serve_load.setup ~traced:false wl seed)
  | "inputs", Some wl ->
      let count = int_of_string (get "--count") in
      let print r = print_endline (Programs.describe r) in
      (match wl with
      | Serve_load.Cold ->
          let next = Programs.cold_stream seed ~phase:0 in
          for _ = 1 to count do print (next ()) done
      | Serve_load.Hot -> Array.iter print (Programs.hot_programs seed)
      | Serve_load.Mixed ->
          let s = Programs.mixed_stream seed ~phase:0 in
          for _ = 1 to count do print (s.Programs.next ()) done)
  | "run", _ ->
      let seconds = float_of_string (get "--seconds") in
      let trace =
        match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      let fuzz ~seconds =
        let o = Fuzz_load.run ~seed ~seconds ~trace ~tiny in
        Fuzz_load.(o.correct, o.attempted, o.failed, o.metrics)
      in
      let serve wl ~seconds =
        let setups =
          if trace then []
          else List.init (setup_repeats ~tiny workload) (fun _ -> timed_setup ~workload ~seed)
        in
        let o = Serve_load.run wl ~seed ~seconds ~trace in
        ( o.Serve_load.correct,
          o.Serve_load.attempted,
          o.Serve_load.failed,
          (if trace then [] else [ m "setup_s" "s" (p50 setups) ]) @ o.Serve_load.metrics )
      in
      let own () =
        match serve_wl with None -> fuzz ~seconds | Some wl -> serve wl ~seconds
      in
      let correct, attempted, failed, metrics =
        if not trace then own ()
        else
          (* Every traced run reports every layer of the stack. The layers
             of the other family (the fuzz loop's under a serve workload,
             the daemon's under fuzz) are profiled by a short traced run
             of that family after the workload's own. *)
          let c, a, f, ms = own () in
          let c', a', f', ms' =
            match serve_wl with
            | None -> serve Serve_load.Cold ~seconds:(Float.min seconds other_seconds)
            | Some _ -> fuzz ~seconds:(Float.min seconds other_seconds)
          in
          (c && c', a + a', f + f', ms @ ms')
      in
      let metrics =
        if trace then metrics else metrics @ [ m "peak_heap_mb" "MB" (peak_heap_mb ()) ]
      in
      print_endline (result_line ~correct ~attempted ~failed metrics)
  | _ -> usage ()
