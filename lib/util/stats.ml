let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile p = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let minimum = function [] -> 0.0 | xs -> List.fold_left min infinity xs
let maximum = function [] -> 0.0 | xs -> List.fold_left max neg_infinity xs

(* Lanczos approximation (g = 7, n = 9); accurate to ~1e-13 for x > 0. *)
let lanczos_coefficients =
  [|
    0.99999999999980993; 676.5203681218851; -1259.1392167224028;
    771.32342877765313; -176.61502916214059; 12.507343278686905;
    -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection formula. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else
    let x = x -. 1.0 in
    let a = ref lanczos_coefficients.(0) in
    let t = x +. 7.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

let log_binomial n k =
  if k < 0 || k > n || n < 0 then neg_infinity
  else if k = 0 || k = n then 0.0
  else
    log_gamma (float_of_int (n + 1))
    -. log_gamma (float_of_int (k + 1))
    -. log_gamma (float_of_int (n - k + 1))

let log_sum_exp = function
  | [] -> neg_infinity
  | xs ->
      let m = List.fold_left max neg_infinity xs in
      if m = neg_infinity then neg_infinity
      else m +. log (List.fold_left (fun acc x -> acc +. exp (x -. m)) 0.0 xs)

let binomial_range_log n l u =
  let l = max 0 l and u = min n u in
  if l > u then neg_infinity
  else
    let rec terms c acc = if c > u then acc else terms (c + 1) (log_binomial n c :: acc) in
    log_sum_exp (terms l [])

let timeit f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)
