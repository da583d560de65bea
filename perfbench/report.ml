(* Summaries and the result line. *)

let now = Monotonic_clock.now
let ms a b = Int64.to_float (Int64.sub b a) /. 1e6
let ns_of_s s = Int64.of_float (s *. 1e9)

(* Nearest-rank percentile; 0 for an empty sample (the layer did no
   work in this workload). *)
let percentile p xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let p50 = percentile 50.0
let p99 = percentile 99.0
let maximum xs = List.fold_left max 0.0 xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Peak OCaml heap of this process, in MB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)
