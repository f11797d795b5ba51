(* Samples, metric assembly, the run envelope and the final result
   line. *)

type cls = Paql | Read | Write

let cls_name = function Paql -> "paql" | Read -> "sql_read" | Write -> "sql_write"

type sample = {
  cls : cls;
  latency : float;  (** completion minus due time (open loop) or call start *)
  ok : bool;  (** answered, with a correct answer *)
}

let latencies cls samples =
  List.filter_map (fun s -> if s.cls = cls then Some s.latency else None) samples

type metric = { name : string; unit : string; value : float }

(* Latency metrics of one op class: median and the workload's fixed tail
   percentile. *)
let latency_metrics ~tail_p cls samples =
  let l = latencies cls samples in
  let base = cls_name cls in
  [ (base ^ "_p50_s", Pb_util.Stats.median l); (base ^ "_tail_s", Pb_util.Stats.percentile (100.0 *. tail_p) l) ]

(* Certified quality of one PaQL answer, by the engine's own proof: 1
   when proven, 1 - gap for a feasible answer that carries a sound bound,
   0 without one. *)
let certified_quality (r : Pb_core.Engine.result) =
  match r.proof with
  | Pb_core.Engine.Optimal | Pb_core.Engine.Infeasible -> 1.0
  | Pb_core.Engine.Feasible -> (
      match Option.bind (List.assoc_opt "gap" r.stats) float_of_string_opt with
      | Some g -> Float.max 0.0 (1.0 -. g)
      | None -> 0.0)
  | Pb_core.Engine.Cancelled -> 0.0

let print_metrics ms =
  List.iter (fun x -> Printf.printf "  %-32s %14.6g %s\n" x.name x.value x.unit) ms

(* The last line of stdout: the run's result as one JSON object. *)
let emit ~correct ~attempted ~failed ms =
  let metrics =
    Json.Obj (List.map (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit) ])) ms)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed)); ("metrics", metrics) ]))

(* A digest of the sources the run built, standing in for the git
   revision when the checkout is not a repository. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort compare entries;
        List.concat_map
          (fun e ->
            let p = Filename.concat dir e in
            if Sys.is_directory p then files p
            else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
                    || Filename.check_suffix e ".c" || e = "dune" then [ p ]
            else [])
          (Array.to_list entries)
  in
  let all = List.concat_map files [ "lib"; "bin"; "perfbench" ] in
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.to_hex (Digest.file p)) all)))

let git_rev () =
  match Sys.getenv_opt "PERFBENCH_GIT_REV" with Some r when r <> "" -> r | _ -> "unknown"

let nproc () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
      List.length (List.filter (fun l -> String.length l > 9 && String.sub l 0 9 = "processor") (String.split_on_char '\n' text))
  | exception Sys_error _ -> 0

(* Host, nproc, revision, PB_DOMAINS, PB_STORE, budget flags, the
   command lines of the servers started, seed and the full command line:
   printed and written next to the run's spans. *)
let envelope ~workload ~seed ~flags ~servers =
  Json.Obj
    [
      ("workload", Json.Str workload); ("seed", Json.Num (float_of_int seed));
      ("host", Json.Str (Unix.gethostname ())); ("nproc", Json.Num (float_of_int (nproc ())));
      ("git_rev", Json.Str (git_rev ())); ("source_digest", Json.Str (source_digest ()));
      ("PB_DOMAINS", Json.Str (Option.value (Sys.getenv_opt "PB_DOMAINS") ~default:""));
      ("PB_STORE", Json.Str (Option.value (Sys.getenv_opt "PB_STORE") ~default:""));
      ("flags", Json.Arr (List.map (fun s -> Json.Str s) flags));
      ("servers", Json.Arr (List.map (fun argv -> Json.Arr (List.map (fun s -> Json.Str s) argv)) servers));
      ("argv", Json.Arr (List.map (fun s -> Json.Str s) (Array.to_list Sys.argv)));
    ]
