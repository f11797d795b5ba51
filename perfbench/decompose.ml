(* "p50 = sum of layer self times + unaccounted": the requests whose
   total lies in the 40th-60th percentile band are averaged layer by
   layer, so the printed parts add up to their mean total. *)

let print label rows =
  match rows with
  | [] -> ()
  | _ ->
      let totals = List.map fst rows in
      let lo = Pb_util.Stats.percentile 40.0 totals and hi = Pb_util.Stats.percentile 60.0 totals in
      let band = List.filter (fun (t, _) -> t >= lo && t <= hi) rows in
      let band = if band = [] then rows else band in
      let n = float_of_int (List.length band) in
      let total = Stats.sum (List.map fst band) /. n in
      let names = List.sort_uniq compare (List.concat_map (fun (_, ls) -> List.map fst ls) band) in
      let parts =
        List.map
          (fun name ->
            (name, Stats.sum (List.map (fun (_, ls) -> Option.value (List.assoc_opt name ls) ~default:0.0) band) /. n))
          names
      in
      let accounted = Stats.sum (List.map snd parts) in
      Printf.printf "  %s p50 %.6f s = %s + unaccounted %.6f  (%d requests in the p40-p60 band)\n" label total
        (String.concat " + " (List.map (fun (k, v) -> Printf.sprintf "%s %.6f" k v) parts))
        (total -. accounted) (List.length band)
