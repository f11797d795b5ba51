type sense = Le | Ge | Eq

type linear = (float * int) list

type objective = Maximize of linear | Minimize of linear

type constr = { name : string; terms : linear; sense : sense; rhs : float }

type var_info = {
  vname : string;
  mutable lower : float;
  mutable upper : float;
  vinteger : bool;
}

type t = {
  mutable vars : var_info array;
  mutable nvars : int;
  mutable constrs : constr list;  (* reversed *)
  mutable obj : objective;
}

let create () =
  { vars = Array.make 16 { vname = ""; lower = 0.; upper = 0.; vinteger = false };
    nvars = 0;
    constrs = [];
    obj = Maximize [] }

let grow t =
  if t.nvars = Array.length t.vars then begin
    let bigger =
      Array.make (2 * Array.length t.vars)
        { vname = ""; lower = 0.; upper = 0.; vinteger = false }
    in
    Array.blit t.vars 0 bigger 0 t.nvars;
    t.vars <- bigger
  end

let add_var t ?(integer = false) ?(lower = 0.0) ?(upper = infinity) name =
  if lower > upper then
    invalid_arg
      (Printf.sprintf "Model.add_var %s: lower %g > upper %g" name lower upper);
  grow t;
  let idx = t.nvars in
  t.vars.(idx) <- { vname = name; lower; upper; vinteger = integer };
  t.nvars <- idx + 1;
  idx

let num_vars t = t.nvars
let var_name t i = t.vars.(i).vname
let bounds t i = (t.vars.(i).lower, t.vars.(i).upper)
let lower t i = t.vars.(i).lower
let upper t i = t.vars.(i).upper

let set_bounds t i lo hi =
  t.vars.(i).lower <- lo;
  t.vars.(i).upper <- hi

let is_integer t i = t.vars.(i).vinteger

let add_constr t ?name terms sense rhs =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "c%d" (List.length t.constrs)
  in
  t.constrs <- { name; terms; sense; rhs } :: t.constrs

let constraints t = List.rev t.constrs
let set_objective t obj = t.obj <- obj
let objective t = t.obj

let objective_terms t =
  let dense = Array.make t.nvars 0.0 in
  let fill sign terms =
    List.iter (fun (c, v) -> dense.(v) <- dense.(v) +. (sign *. c)) terms
  in
  (match t.obj with
  | Maximize terms -> fill 1.0 terms
  | Minimize terms -> fill (-1.0) terms);
  dense

(* A loop rather than a fold, so the running sum stays unboxed: branch
   and bound evaluates rows at every node. *)
let eval_linear terms x =
  let acc = ref 0.0 and rest = ref terms and continue = ref true in
  while !continue do
    match !rest with
    | (c, v) :: tl ->
        acc := !acc +. (c *. x.(v));
        rest := tl
    | [] -> continue := false
  done;
  !acc

let objective_value t x =
  match t.obj with
  | Maximize terms -> eval_linear terms x
  | Minimize terms -> eval_linear terms x

let check_feasible ?(eps = 1e-6) t x =
  Array.length x = t.nvars
  && (let ok = ref true in
      for i = 0 to t.nvars - 1 do
        let v = t.vars.(i) in
        if x.(i) < v.lower -. eps || x.(i) > v.upper +. eps then ok := false
      done;
      !ok)
  && List.for_all
       (fun c ->
         let lhs = eval_linear c.terms x in
         match c.sense with
         | Le -> lhs <= c.rhs +. eps
         | Ge -> lhs >= c.rhs -. eps
         | Eq -> Float.abs (lhs -. c.rhs) <= eps)
       t.constrs

let check_integral ?(eps = 1e-6) t x =
  let ok = ref true in
  for i = 0 to t.nvars - 1 do
    if t.vars.(i).vinteger && Float.abs (x.(i) -. Float.round x.(i)) > eps
    then ok := false
  done;
  !ok

let pp ppf t =
  let linear_to_string terms =
    String.concat " + "
      (List.map
         (fun (c, v) -> Printf.sprintf "%g*%s" c t.vars.(v).vname)
         terms)
  in
  (match t.obj with
  | Maximize terms -> Format.fprintf ppf "maximize %s@." (linear_to_string terms)
  | Minimize terms -> Format.fprintf ppf "minimize %s@." (linear_to_string terms));
  Format.fprintf ppf "subject to@.";
  List.iter
    (fun c ->
      let op = match c.sense with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
      Format.fprintf ppf "  %s: %s %s %g@." c.name (linear_to_string c.terms)
        op c.rhs)
    (constraints t);
  Format.fprintf ppf "bounds@.";
  for i = 0 to t.nvars - 1 do
    let v = t.vars.(i) in
    Format.fprintf ppf "  %g <= %s <= %g%s@." v.lower v.vname v.upper
      (if v.vinteger then " (int)" else "")
  done
