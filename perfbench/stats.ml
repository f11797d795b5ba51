(* Sums and ratios; order statistics come from Pb_util.Stats. *)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Ratio that reads 0 rather than nan when nothing was counted. *)
let ratio num den = if den <= 0.0 then 0.0 else num /. den
