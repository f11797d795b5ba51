module Package = Pb_paql.Package
module Semantics = Pb_paql.Semantics

let jaccard_distance a b =
  let sa = Package.support a and sb = Package.support b in
  let module IS = Set.Make (Int) in
  let sa = IS.of_list sa and sb = IS.of_list sb in
  let union = IS.cardinal (IS.union sa sb) in
  if union = 0 then 0.0
  else 1.0 -. (float_of_int (IS.cardinal (IS.inter sa sb)) /. float_of_int union)

(* Greedy max-min pick of [k] packages, seeded with the pool's best
   package under the query's objective. *)
let select ~k query pool =
  match pool with
  | [] -> []
  | _ ->
      let best =
        List.fold_left
          (fun acc pkg ->
            match acc with
            | None -> Some pkg
            | Some cur ->
                if Semantics.compare_quality query pkg cur > 0 then Some pkg
                else acc)
          None pool
      in
      let seed = Option.get best in
      let chosen = ref [ seed ] in
      let remaining = ref (List.filter (fun p -> p != seed) pool) in
      while List.length !chosen < k && !remaining <> [] do
        (* Farthest-point: maximize the distance to the nearest chosen. *)
        let score pkg =
          List.fold_left
            (fun acc c -> Float.min acc (jaccard_distance pkg c))
            infinity !chosen
        in
        let next =
          List.fold_left
            (fun acc pkg ->
              match acc with
              | None -> Some (pkg, score pkg)
              | Some (_, best_score) ->
                  let s = score pkg in
                  if s > best_score then Some (pkg, s) else acc)
            None !remaining
        in
        match next with
        | None -> remaining := []
        | Some (pkg, _) ->
            chosen := !chosen @ [ pkg ];
            remaining := List.filter (fun p -> p != pkg) !remaining
      done;
      !chosen

let diverse_packages ?(pool_size = 2000) ?(k = 5) db query =
  let coeffs = Pb_core.Coeffs.make db query in
  let pool = Pb_core.Brute_force.enumerate_valid ~limit:pool_size coeffs in
  select ~k query pool
