type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 finalizer: Steele, Lea & Flood, OOPSLA 2014. *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t n =
  assert (n > 0);
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int n))

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 uniform bits mapped into [0, 1). *)
  let u = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (u /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t ~mean ~stddev =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = float t 1.0 in
      sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  mean +. (stddev *. draw ())

let choice t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
