open Ast
module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Column = Pb_store.Column
module Table = Pb_store.Table

(* Batch-at-a-time expression kernels over columnar chunks.

   A kernel evaluates one expression over [len] consecutive distinct rows
   of a columnar table and returns a vector. Compilation is total or
   nothing: any node the vectorized forms cannot reproduce bit-identically
   (subqueries, CASE, mixed-kind comparisons, boxed columns, ...) makes
   [compile] return [None] and the caller falls back to the row
   engine — so a kernel that *does* compile never raises at runtime,
   which also makes conjunct evaluation order immaterial.

   Numerics are computed in 64-bit floats. Int arithmetic and comparisons
   are exact below 2^53 (the row engine's own cross-type comparisons
   already go through the float image); a static [int_valued] flag tracks
   whether the row engine would have produced [Value.Int]s, so aggregate
   result types match the row engine's dynamic all-int test.

   Each kernel node owns its output buffer (get-or-grow, sized to the
   largest chunk seen) and overwrites it on every run, so the hot loops
   allocate nothing. A chunk's vector is therefore only valid until the
   node runs again — fine for the chunk-at-a-time drivers, which consume
   each child's output before advancing. Null positions of a [Num] vector
   may hold stale values; every consumer masks through the side map. *)

let chunk = 1024

(* Hot loops use unsafe array/Bytes/Bigarray accesses: every index is
   [< len], every buffer is [>= len] long (grow_* and the chunk drivers
   guarantee it), and Kleene bytes are always 0/1/2 — the bounds checks
   they elide are predictable but not free at one per access. *)
module BA1 = Bigarray.Array1

type vec =
  | Num of float array * Bytes.t option  (* values; side-map byte 1 = NULL *)
  | B3 of Bytes.t  (* three-valued logic: 0 false / 1 true / 2 null *)
  | Sv of string array * int array  (* dictionary, codes; code -1 = NULL *)

type kind = K_num | K_str | K_bool

type t = {
  kind : kind;
  int_valued : bool;  (* non-null results are Value.Int in the row engine *)
  run : lo:int -> len:int -> vec;
}

let as_num = function Num (v, n) -> (v, n) | _ -> assert false
let as_b3 = function B3 b -> b | _ -> assert false
let as_sv = function Sv (d, c) -> (d, c) | _ -> assert false

(* Per-node scratch buffers: reuse if big enough, else grow. The first
   chunk is the largest, so in practice these allocate once. *)
let grow_f buf len =
  if Array.length !buf >= len then !buf
  else begin
    buf := Array.make len 0.0;
    !buf
  end

let grow_i buf len =
  if Array.length !buf >= len then !buf
  else begin
    buf := Array.make len 0;
    !buf
  end

let grow_b buf len =
  if Bytes.length !buf >= len then !buf
  else begin
    buf := Bytes.make len '\000';
    !buf
  end

(* Union two null maps into [buf] (only when both sides have nulls). *)
let union_nulls buf len a b =
  match (a, b) with
  | None, None -> None
  | Some x, None -> Some x
  | None, Some y -> Some y
  | Some x, Some y ->
      let out = grow_b buf len in
      for i = 0 to len - 1 do
        Bytes.set out i
          (if Bytes.get x i = '\001' || Bytes.get y i = '\001' then '\001'
           else '\000')
      done;
      Some out

let null_at nulls i = Column.is_null nulls i



(* ---- leaf kernels ---------------------------------------------------- *)

let const_num f ~int_valued =
  let buf = ref [||] in
  Some
    {
      kind = K_num;
      int_valued;
      run =
        (fun ~lo:_ ~len ->
          (* Array.make fills with [f]; nothing ever mutates a child's
             output, so the prefilled buffer can be handed out as is. *)
          if Array.length !buf < len then buf := Array.make len f;
          Num (!buf, None));
    }

let const_bool b =
  let byte = if b then '\001' else '\000' in
  let buf = ref Bytes.empty in
  Some
    {
      kind = K_bool;
      int_valued = false;
      run =
        (fun ~lo:_ ~len ->
          if Bytes.length !buf < len then buf := Bytes.make len byte;
          B3 !buf);
    }

let const_str s =
  let buf = ref [||] in
  Some
    {
      kind = K_str;
      int_valued = false;
      run = (fun ~lo:_ ~len -> Sv ([| s |], grow_i buf len));
    }

let col_kernel (tbl : Table.t) i =
  match Table.col tbl i with
  | Column.Ints { data; nulls } ->
      let out = ref [||] and nbuf = ref Bytes.empty in
      Some
        {
          kind = K_num;
          int_valued = true;
          run =
            (fun ~lo ~len ->
              let o = grow_f out len in
              for k = 0 to len - 1 do
                Array.unsafe_set o k (float_of_int (BA1.unsafe_get data (lo + k)))
              done;
              let n =
                match nulls with
                | None -> None
                | Some b ->
                    let s = grow_b nbuf len in
                    Bytes.blit b lo s 0 len;
                    Some s
              in
              Num (o, n));
        }
  | Column.Floats { data; nulls } ->
      let out = ref [||] and nbuf = ref Bytes.empty in
      Some
        {
          kind = K_num;
          int_valued = false;
          run =
            (fun ~lo ~len ->
              let o = grow_f out len in
              for k = 0 to len - 1 do
                Array.unsafe_set o k (BA1.unsafe_get data (lo + k))
              done;
              let n =
                match nulls with
                | None -> None
                | Some b ->
                    let s = grow_b nbuf len in
                    Bytes.blit b lo s 0 len;
                    Some s
              in
              Num (o, n));
        }
  | Column.Strs { dict; codes; _ } ->
      let out = ref [||] in
      Some
        {
          kind = K_str;
          int_valued = false;
          run =
            (fun ~lo ~len ->
              let o = grow_i out len in
              Array.blit codes lo o 0 len;
              Sv (dict, o));
        }
  | Column.Bools { data; nulls } ->
      let out = ref Bytes.empty in
      let run =
        match nulls with
        | None ->
            fun ~lo ~len ->
              let o = grow_b out len in
              for k = 0 to len - 1 do
                Bytes.set o k
                  (if Bytes.get data (lo + k) = '\001' then '\001' else '\000')
              done;
              B3 o
        | Some nb ->
            fun ~lo ~len ->
              let o = grow_b out len in
              for k = 0 to len - 1 do
                Bytes.set o k
                  (if Bytes.get nb (lo + k) = '\001' then '\002'
                   else if Bytes.get data (lo + k) = '\001' then '\001'
                   else '\000')
              done;
              B3 o
      in
      Some { kind = K_bool; int_valued = false; run }
  | Column.Mixed _ -> None

(* ---- three-valued logic ---------------------------------------------- *)

(* Writers fill every byte of [out], so no clearing is needed. The Kleene
   connectives are branchless table lookups indexed by [x * 3 + y] (bytes
   are always 0 false / 1 true / 2 null) — short-circuit forms would
   branch on data-dependent truth values, which mispredicts on ~random
   rows. *)

let not_table = "\001\000\002"
let and_table = "\000\000\000\000\001\002\000\002\002"
let or_table = "\000\001\002\001\001\001\002\001\002"

let kleene_not out a len =
  for i = 0 to len - 1 do
    Bytes.unsafe_set out i
      (String.unsafe_get not_table (Char.code (Bytes.unsafe_get a i)))
  done

let kleene_and out a b len =
  for i = 0 to len - 1 do
    Bytes.unsafe_set out i
      (String.unsafe_get and_table
         ((Char.code (Bytes.unsafe_get a i) * 3)
         + Char.code (Bytes.unsafe_get b i)))
  done

let kleene_or out a b len =
  for i = 0 to len - 1 do
    Bytes.unsafe_set out i
      (String.unsafe_get or_table
         ((Char.code (Bytes.unsafe_get a i) * 3)
         + Char.code (Bytes.unsafe_get b i)))
  done

let cmp_test op =
  match op with
  | Eq -> fun c -> c = 0
  | Neq -> fun c -> c <> 0
  | Lt -> fun c -> c < 0
  | Le -> fun c -> c <= 0
  | Gt -> fun c -> c > 0
  | Ge -> fun c -> c >= 0
  | Add | Sub | Mul | Div | And | Or -> assert false

let mirror_cmp = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | o -> o

(* Memoize a per-dictionary computation by physical equality of the
   dictionary array (a column's dict never changes; kernels producing
   fresh dicts produce them once per node). *)
let dict_memo f =
  let memo = ref None in
  fun dict ->
    match !memo with
    | Some (d, m) when d == dict -> m
    | _ ->
        let m = f dict in
        memo := Some (dict, m);
        m

(* ---- compilation ----------------------------------------------------- *)

let rec compile schema (tbl : Table.t) e : t option =
  let c e = compile schema tbl e in
  match e with
  | Lit (Value.Int i) -> const_num (float_of_int i) ~int_valued:true
  | Lit (Value.Float f) -> const_num f ~int_valued:false
  | Lit (Value.Bool b) -> const_bool b
  | Lit (Value.Str s) -> const_str s
  | Lit Value.Null -> None
  | Col name -> (
      match Schema.index_of schema name with
      | Some i -> col_kernel tbl i
      | None -> None)
  | Unary_minus e -> (
      match c e with
      | Some k when k.kind = K_num ->
          let buf = ref [||] in
          Some
            {
              k with
              run =
                (fun ~lo ~len ->
                  let v, n = as_num (k.run ~lo ~len) in
                  let out = grow_f buf len in
                  for i = 0 to len - 1 do
                    out.(i) <- -.v.(i)
                  done;
                  Num (out, n));
            }
      | _ -> None)
  | Not e -> (
      match c e with
      | Some k when k.kind = K_bool ->
          let buf = ref Bytes.empty in
          Some
            {
              k with
              run =
                (fun ~lo ~len ->
                  let b = as_b3 (k.run ~lo ~len) in
                  let out = grow_b buf len in
                  kleene_not out b len;
                  B3 out);
            }
      | _ -> None)
  | Binop ((Add | Sub | Mul) as op, a, b) -> (
      match (c a, c b) with
      | Some ka, Some kb when ka.kind = K_num && kb.kind = K_num ->
          (* One loop per operator: calling [(+.)] through a closure would
             box both floats on every row. *)
          let run_op =
            match op with
            | Add ->
                fun va vb out len ->
                  for i = 0 to len - 1 do
                    Array.unsafe_set out i
                      (Array.unsafe_get va i +. Array.unsafe_get vb i)
                  done
            | Sub ->
                fun va vb out len ->
                  for i = 0 to len - 1 do
                    Array.unsafe_set out i
                      (Array.unsafe_get va i -. Array.unsafe_get vb i)
                  done
            | Mul ->
                fun va vb out len ->
                  for i = 0 to len - 1 do
                    Array.unsafe_set out i
                      (Array.unsafe_get va i *. Array.unsafe_get vb i)
                  done
            | _ -> assert false
          in
          let buf = ref [||] and nbuf = ref Bytes.empty in
          Some
            {
              kind = K_num;
              int_valued = ka.int_valued && kb.int_valued;
              run =
                (fun ~lo ~len ->
                  let va, na = as_num (ka.run ~lo ~len) in
                  let vb, nb = as_num (kb.run ~lo ~len) in
                  let out = grow_f buf len in
                  run_op va vb out len;
                  Num (out, union_nulls nbuf len na nb));
            }
      | _ -> None)
  | Binop (Div, a, (Lit (Value.Int _ | Value.Float _) as lit)) -> (
      (* Division by a non-zero constant can neither trap nor produce new
         NULLs, so the null map passes through untouched and the loop is a
         bare float division. *)
      let d =
        match lit with
        | Lit (Value.Int i) -> float_of_int i
        | Lit (Value.Float f) -> f
        | _ -> assert false
      in
      if d = 0.0 then compile_div schema tbl a lit
      else
        match c a with
        | Some ka when ka.kind = K_num ->
            let buf = ref [||] in
            Some
              {
                kind = K_num;
                int_valued = false;
                run =
                  (fun ~lo ~len ->
                    let va, na = as_num (ka.run ~lo ~len) in
                    let out = grow_f buf len in
                    for i = 0 to len - 1 do
                      Array.unsafe_set out i (Array.unsafe_get va i /. d)
                    done;
                    Num (out, na));
              }
        | _ -> None)
  | Binop (Div, a, b) -> compile_div schema tbl a b
  | Binop (And, a, b) -> (
      match (c a, c b) with
      | Some ka, Some kb when ka.kind = K_bool && kb.kind = K_bool ->
          let buf = ref Bytes.empty in
          Some
            {
              kind = K_bool;
              int_valued = false;
              run =
                (fun ~lo ~len ->
                  let ba = as_b3 (ka.run ~lo ~len) in
                  let bb = as_b3 (kb.run ~lo ~len) in
                  let out = grow_b buf len in
                  kleene_and out ba bb len;
                  B3 out);
            }
      | _ -> None)
  | Binop (Or, a, b) -> (
      match (c a, c b) with
      | Some ka, Some kb when ka.kind = K_bool && kb.kind = K_bool ->
          let buf = ref Bytes.empty in
          Some
            {
              kind = K_bool;
              int_valued = false;
              run =
                (fun ~lo ~len ->
                  let ba = as_b3 (ka.run ~lo ~len) in
                  let bb = as_b3 (kb.run ~lo ~len) in
                  let out = grow_b buf len in
                  kleene_or out ba bb len;
                  B3 out);
            }
      | _ -> None)
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
      compile_cmp schema tbl op a b
  | Between (e, lo_e, hi_e) -> (
      match (c e, c lo_e, c hi_e) with
      | Some ke, Some klo, Some khi
        when ke.kind = K_num && klo.kind = K_num && khi.kind = K_num ->
          let buf = ref Bytes.empty in
          Some
            {
              kind = K_bool;
              int_valued = false;
              run =
                (fun ~lo ~len ->
                  let v, nv = as_num (ke.run ~lo ~len) in
                  let l, nl = as_num (klo.run ~lo ~len) in
                  let h, nh = as_num (khi.run ~lo ~len) in
                  let out = grow_b buf len in
                  (if nv = None && nl = None && nh = None then
                     for i = 0 to len - 1 do
                       (* Direct-float forms of Float.compare >= 0 / <= 0
                          (NaN below everything, NaN = NaN). *)
                       let x = Array.unsafe_get v i in
                       let lo_v = Array.unsafe_get l i
                       and hi_v = Array.unsafe_get h i in
                       let lower = x >= lo_v || lo_v <> lo_v in
                       let upper = x <= hi_v || x <> x in
                       Bytes.unsafe_set out i
                         (if lower && upper then '\001' else '\000')
                     done
                   else
                     for i = 0 to len - 1 do
                       let lower =
                         if null_at nv i || null_at nl i then '\002'
                         else if v.(i) >= l.(i) || l.(i) <> l.(i) then '\001'
                         else '\000'
                       in
                       let upper =
                         if null_at nv i || null_at nh i then '\002'
                         else if v.(i) <= h.(i) || v.(i) <> v.(i) then '\001'
                         else '\000'
                       in
                       Bytes.set out i
                         (if lower = '\000' || upper = '\000' then '\000'
                          else if lower = '\001' && upper = '\001' then '\001'
                          else '\002')
                     done);
                  B3 out);
            }
      | _ -> None)
  | In_list (e, items, neg) -> compile_in_list schema tbl e items neg
  | Is_null (e, neg) -> (
      match c e with
      | Some k ->
          let t_byte = if neg then '\000' else '\001' in
          let f_byte = if neg then '\001' else '\000' in
          let buf = ref Bytes.empty in
          Some
            {
              kind = K_bool;
              int_valued = false;
              run =
                (fun ~lo ~len ->
                  let out = grow_b buf len in
                  Bytes.fill out 0 len f_byte;
                  (match k.run ~lo ~len with
                  | Num (_, n) ->
                      for i = 0 to len - 1 do
                        if null_at n i then Bytes.set out i t_byte
                      done
                  | B3 b ->
                      for i = 0 to len - 1 do
                        if Bytes.get b i = '\002' then Bytes.set out i t_byte
                      done
                  | Sv (_, codes) ->
                      for i = 0 to len - 1 do
                        if codes.(i) < 0 then Bytes.set out i t_byte
                      done);
                  B3 out);
            }
      | None -> None)
  | Like (e, pattern, neg) -> compile_like_kernel schema tbl e pattern neg
  | Func (name, args) -> compile_func schema tbl name args
  | Agg _ | In_query _ | Exists _ | Case _ -> None

and compile_div schema tbl a b =
  match (compile schema tbl a, compile schema tbl b) with
  | Some ka, Some kb when ka.kind = K_num && kb.kind = K_num ->
      let buf = ref [||] and nbuf = ref Bytes.empty in
      Some
        {
          kind = K_num;
          int_valued = false;
          run =
            (fun ~lo ~len ->
              let va, na = as_num (ka.run ~lo ~len) in
              let vb, nb = as_num (kb.run ~lo ~len) in
              let out = grow_f buf len in
              (* Division by (float image) zero is NULL, like Value.div.
                 Input null maps are folded in up front (per-row Option
                 tests are a call per row); if nothing ends up null the
                 map is dropped so downstream kernels skip stamping. *)
              let nulls = grow_b nbuf len in
              Bytes.fill nulls 0 len '\000';
              let any = ref false in
              let fold = function
                | None -> ()
                | Some b ->
                    for i = 0 to len - 1 do
                      if Bytes.get b i = '\001' then begin
                        Bytes.set nulls i '\001';
                        any := true
                      end
                    done
              in
              fold na;
              fold nb;
              for i = 0 to len - 1 do
                if vb.(i) = 0.0 then begin
                  Bytes.set nulls i '\001';
                  any := true
                end
                else out.(i) <- va.(i) /. vb.(i)
              done;
              Num (out, if !any then Some nulls else None));
        }
  | _ -> None

and compile_cmp schema tbl op a b =
  let test = cmp_test op in
  (* String column against a string literal: precompute the verdict per
     dictionary entry, then answer each row by code lookup. *)
  let dict_cmp col_name lit ~flipped =
    match Schema.index_of schema col_name with
    | None -> None
    | Some i -> (
        match Table.col tbl i with
        | Column.Strs { dict; codes; _ } ->
            let hits =
              Array.map
                (fun entry ->
                  let cmp =
                    if flipped then String.compare lit entry
                    else String.compare entry lit
                  in
                  test cmp)
                dict
            in
            let buf = ref Bytes.empty in
            Some
              {
                kind = K_bool;
                int_valued = false;
                run =
                  (fun ~lo ~len ->
                    let out = grow_b buf len in
                    for k = 0 to len - 1 do
                      let code = codes.(lo + k) in
                      Bytes.set out k
                        (if code < 0 then '\002'
                         else if hits.(code) then '\001'
                         else '\000')
                    done;
                    B3 out);
              }
        | _ -> None)
  in
  let special =
    match (a, b) with
    | Col c, Lit (Value.Str s) -> dict_cmp c s ~flipped:false
    | Lit (Value.Str s), Col c -> dict_cmp c s ~flipped:true
    | _ -> None
  in
  match special with
  | Some k -> Some k
  | None -> (
      (* Numeric comparison against a literal: canonicalize [lit op e] to
         [e (mirrored op) lit] (Float.compare's total order is
         antisymmetric) and fuse the scalar into the loop. *)
      let num_lit = function
        | Lit (Value.Int i) -> Some (float_of_int i)
        | Lit (Value.Float f) -> Some f
        | _ -> None
      in
      match (num_lit a, num_lit b) with
      | _, Some y when y = y -> compile_cmp_scalar schema tbl op a y
      | Some y, None when y = y ->
          compile_cmp_scalar schema tbl (mirror_cmp op) b y
      | _ -> compile_cmp_generic schema tbl op a b)

and compile_cmp_scalar schema tbl op e y =
  (* [e op y] with a non-NaN numeric literal [y]: the scalar rides in a
     register instead of a constant vector. With [y = y] known,
     Float.compare's forms collapse to [x op y] plus an [x <> x] term for
     Lt/Le/Neq (NaN orders below any literal, so it satisfies exactly
     those). When [e] is a bare Ints/Floats column the loop reads the
     Bigarray directly, skipping the chunk copy a column kernel would
     make — and int data cannot hold NaN, so those forms drop the NaN
     term as well. *)
  let stamp_col_nulls out nulls lo len =
    match nulls with
    | None -> ()
    | Some b ->
        for k = 0 to len - 1 do
          if Bytes.get b (lo + k) = '\001' then Bytes.set out k '\002'
        done
  in
  let fused =
    match e with
    | Col name -> (
        match Schema.index_of schema name with
        | None -> None
        | Some i -> (
            match Table.col tbl i with
            | Column.Ints { data; nulls } ->
                let run_col =
                  match op with
                  | Eq ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          if float_of_int (BA1.unsafe_get data (lo + k)) = y
                          then Bytes.unsafe_set out k '\001'
                        done
                  | Neq ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          if float_of_int (BA1.unsafe_get data (lo + k)) <> y
                          then Bytes.unsafe_set out k '\001'
                        done
                  | Lt ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          if float_of_int (BA1.unsafe_get data (lo + k)) < y
                          then Bytes.unsafe_set out k '\001'
                        done
                  | Le ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          if float_of_int (BA1.unsafe_get data (lo + k)) <= y
                          then Bytes.unsafe_set out k '\001'
                        done
                  | Gt ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          if float_of_int (BA1.unsafe_get data (lo + k)) > y
                          then Bytes.unsafe_set out k '\001'
                        done
                  | Ge ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          if float_of_int (BA1.unsafe_get data (lo + k)) >= y
                          then Bytes.unsafe_set out k '\001'
                        done
                  | Add | Sub | Mul | Div | And | Or -> assert false
                in
                Some (run_col, nulls)
            | Column.Floats { data; nulls } ->
                let run_col =
                  match op with
                  | Eq ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          if BA1.unsafe_get data (lo + k) = y then
                            Bytes.unsafe_set out k '\001'
                        done
                  | Neq ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          if BA1.unsafe_get data (lo + k) <> y then
                            Bytes.unsafe_set out k '\001'
                        done
                  | Lt ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          let x = BA1.unsafe_get data (lo + k) in
                          if x < y || x <> x then Bytes.unsafe_set out k '\001'
                        done
                  | Le ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          let x = BA1.unsafe_get data (lo + k) in
                          if x <= y || x <> x then
                            Bytes.unsafe_set out k '\001'
                        done
                  | Gt ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          if BA1.unsafe_get data (lo + k) > y then
                            Bytes.unsafe_set out k '\001'
                        done
                  | Ge ->
                      fun out ~lo ~len ->
                        for k = 0 to len - 1 do
                          if BA1.unsafe_get data (lo + k) >= y then
                            Bytes.unsafe_set out k '\001'
                        done
                  | Add | Sub | Mul | Div | And | Or -> assert false
                in
                Some (run_col, nulls)
            | _ -> None))
    | _ -> None
  in
  match fused with
  | Some (run_col, nulls) ->
      let buf = ref Bytes.empty in
      Some
        {
          kind = K_bool;
          int_valued = false;
          run =
            (fun ~lo ~len ->
              let out = grow_b buf len in
              Bytes.fill out 0 len '\000';
              run_col out ~lo ~len;
              stamp_col_nulls out nulls lo len;
              B3 out);
        }
  | None -> (
      match compile schema tbl e with
      | Some k when k.kind = K_num ->
          let run_scalar =
            match op with
            | Eq ->
                fun v out len ->
                  for i = 0 to len - 1 do
                    if Array.unsafe_get v i = y then
                      Bytes.unsafe_set out i '\001'
                  done
            | Neq ->
                fun v out len ->
                  for i = 0 to len - 1 do
                    if Array.unsafe_get v i <> y then
                      Bytes.unsafe_set out i '\001'
                  done
            | Lt ->
                fun v out len ->
                  for i = 0 to len - 1 do
                    let x = Array.unsafe_get v i in
                    if x < y || x <> x then Bytes.unsafe_set out i '\001'
                  done
            | Le ->
                fun v out len ->
                  for i = 0 to len - 1 do
                    let x = Array.unsafe_get v i in
                    if x <= y || x <> x then Bytes.unsafe_set out i '\001'
                  done
            | Gt ->
                fun v out len ->
                  for i = 0 to len - 1 do
                    if Array.unsafe_get v i > y then
                      Bytes.unsafe_set out i '\001'
                  done
            | Ge ->
                fun v out len ->
                  for i = 0 to len - 1 do
                    if Array.unsafe_get v i >= y then
                      Bytes.unsafe_set out i '\001'
                  done
            | Add | Sub | Mul | Div | And | Or -> assert false
          in
          let buf = ref Bytes.empty in
          Some
            {
              kind = K_bool;
              int_valued = false;
              run =
                (fun ~lo ~len ->
                  let v, n = as_num (k.run ~lo ~len) in
                  let out = grow_b buf len in
                  Bytes.fill out 0 len '\000';
                  run_scalar v out len;
                  (match n with
                  | Some b ->
                      for i = 0 to len - 1 do
                        if Bytes.get b i = '\001' then Bytes.set out i '\002'
                      done
                  | None -> ());
                  B3 out);
            }
      | _ -> None)

and compile_cmp_generic schema tbl op a b =
  let test = cmp_test op in
  (
      match (compile schema tbl a, compile schema tbl b) with
      | Some ka, Some kb when ka.kind = K_num && kb.kind = K_num ->
          (* Open-coded per operator: a [test (Float.compare ...)] closure
             chain costs a call (and a C call) per row. Each branch
             reproduces Float.compare's total order — NaN below
             everything, NaN = NaN, -0. = 0. — in direct float ops.
             (Branchy on purpose: materializing the comparison bits
             branchlessly measured ~2x slower here than the predictable
             fill-then-sparse-set form.) *)
          let run_cmp =
            match op with
            | Eq ->
                fun va vb out len ->
                  for i = 0 to len - 1 do
                    let x = Array.unsafe_get va i
                    and y = Array.unsafe_get vb i in
                    if x = y || (x <> x && y <> y) then
                      Bytes.unsafe_set out i '\001'
                  done
            | Neq ->
                fun va vb out len ->
                  for i = 0 to len - 1 do
                    let x = Array.unsafe_get va i
                    and y = Array.unsafe_get vb i in
                    if not (x = y || (x <> x && y <> y)) then
                      Bytes.unsafe_set out i '\001'
                  done
            | Lt ->
                fun va vb out len ->
                  for i = 0 to len - 1 do
                    let x = Array.unsafe_get va i
                    and y = Array.unsafe_get vb i in
                    if x < y || (x <> x && y = y) then
                      Bytes.unsafe_set out i '\001'
                  done
            | Le ->
                fun va vb out len ->
                  for i = 0 to len - 1 do
                    let x = Array.unsafe_get va i
                    and y = Array.unsafe_get vb i in
                    if x <= y || x <> x then Bytes.unsafe_set out i '\001'
                  done
            | Gt ->
                fun va vb out len ->
                  for i = 0 to len - 1 do
                    let x = Array.unsafe_get va i
                    and y = Array.unsafe_get vb i in
                    if x > y || (y <> y && x = x) then
                      Bytes.unsafe_set out i '\001'
                  done
            | Ge ->
                fun va vb out len ->
                  for i = 0 to len - 1 do
                    let x = Array.unsafe_get va i
                    and y = Array.unsafe_get vb i in
                    if x >= y || y <> y then Bytes.unsafe_set out i '\001'
                  done
            | Add | Sub | Mul | Div | And | Or -> assert false
          in
          let buf = ref Bytes.empty in
          Some
            {
              kind = K_bool;
              int_valued = false;
              run =
                (fun ~lo ~len ->
                  let va, na = as_num (ka.run ~lo ~len) in
                  let vb, nb = as_num (kb.run ~lo ~len) in
                  let out = grow_b buf len in
                  Bytes.fill out 0 len '\000';
                  run_cmp va vb out len;
                  (* Null positions hold stale values; stamp them last. *)
                  (match na with
                  | Some b ->
                      for i = 0 to len - 1 do
                        if Bytes.get b i = '\001' then Bytes.set out i '\002'
                      done
                  | None -> ());
                  (match nb with
                  | Some b ->
                      for i = 0 to len - 1 do
                        if Bytes.get b i = '\001' then Bytes.set out i '\002'
                      done
                  | None -> ());
                  B3 out);
            }
      | Some ka, Some kb when ka.kind = K_str && kb.kind = K_str ->
          let buf = ref Bytes.empty in
          Some
            {
              kind = K_bool;
              int_valued = false;
              run =
                (fun ~lo ~len ->
                  let da, ca = as_sv (ka.run ~lo ~len) in
                  let db, cb = as_sv (kb.run ~lo ~len) in
                  let out = grow_b buf len in
                  for i = 0 to len - 1 do
                    Bytes.set out i
                      (if ca.(i) < 0 || cb.(i) < 0 then '\002'
                       else if
                         test (String.compare da.(ca.(i)) db.(cb.(i)))
                       then '\001'
                       else '\000')
                  done;
                  B3 out);
            }
      | Some ka, Some kb when ka.kind = K_bool && kb.kind = K_bool ->
          let buf = ref Bytes.empty in
          Some
            {
              kind = K_bool;
              int_valued = false;
              run =
                (fun ~lo ~len ->
                  let ba = as_b3 (ka.run ~lo ~len) in
                  let bb = as_b3 (kb.run ~lo ~len) in
                  let out = grow_b buf len in
                  for i = 0 to len - 1 do
                    let x = Bytes.get ba i and y = Bytes.get bb i in
                    Bytes.set out i
                      (if x = '\002' || y = '\002' then '\002'
                       else if
                         test (Bool.compare (x = '\001') (y = '\001'))
                       then '\001'
                       else '\000')
                  done;
                  B3 out);
            }
      | _ -> None)

and compile_in_list schema tbl e items neg =
  (* Row semantics: hit = exists item with Value.equal v item — note that
     Value.equal Null Null holds, and the result is always Bool (never
     Null). Only literal item lists vectorize. *)
  let literals =
    List.fold_left
      (fun acc it ->
        match (acc, it) with
        | Some vs, Lit v -> Some (v :: vs)
        | _ -> None)
      (Some []) items
  in
  match (compile schema tbl e, literals) with
  | Some k, Some vs when k.kind = K_num ->
      let has_null = List.exists (fun v -> v = Value.Null) vs in
      let floats =
        List.filter_map
          (function
            | Value.Int i -> Some (float_of_int i)
            | Value.Float f -> Some f
            | _ -> None)
          vs
      in
      let member f = List.exists (fun x -> Float.compare x f = 0) floats in
      let t_byte = if neg then '\000' else '\001' in
      let f_byte = if neg then '\001' else '\000' in
      let buf = ref Bytes.empty in
      Some
        {
          kind = K_bool;
          int_valued = false;
          run =
            (fun ~lo ~len ->
              let v, n = as_num (k.run ~lo ~len) in
              let out = grow_b buf len in
              Bytes.fill out 0 len f_byte;
              for i = 0 to len - 1 do
                let hit =
                  if null_at n i then has_null else member v.(i)
                in
                if hit then Bytes.set out i t_byte
              done;
              B3 out);
        }
  | Some k, Some vs when k.kind = K_str ->
      let has_null = List.exists (fun v -> v = Value.Null) vs in
      let set = Hashtbl.create 8 in
      List.iter
        (function Value.Str s -> Hashtbl.replace set s () | _ -> ())
        vs;
      let t_byte = if neg then '\000' else '\001' in
      let f_byte = if neg then '\001' else '\000' in
      let buf = ref Bytes.empty in
      Some
        {
          kind = K_bool;
          int_valued = false;
          run =
            (fun ~lo ~len ->
              let dict, codes = as_sv (k.run ~lo ~len) in
              let out = grow_b buf len in
              Bytes.fill out 0 len f_byte;
              for i = 0 to len - 1 do
                let hit =
                  if codes.(i) < 0 then has_null
                  else Hashtbl.mem set dict.(codes.(i))
                in
                if hit then Bytes.set out i t_byte
              done;
              B3 out);
        }
  | _ -> None

and compile_like_kernel schema tbl e pattern neg =
  let toks = Compile.compile_like pattern in
  let matcher = Compile.like_match_compiled toks in
  let b3_of_hits out hits codes len lo =
    for k = 0 to len - 1 do
      let code = codes.(lo + k) in
      Bytes.set out k
        (if code < 0 then '\002'
         else if (if neg then not hits.(code) else hits.(code)) then '\001'
         else '\000')
    done
  in
  match e with
  | Col name -> (
      (* Direct column: match each dictionary entry once (memoized on the
         column, so repeated queries pay O(1) per row). *)
      match Schema.index_of schema name with
      | None -> None
      | Some i -> (
          match Table.col tbl i with
          | Column.Strs { codes; _ } as col ->
              let buf = ref Bytes.empty in
              Some
                {
                  kind = K_bool;
                  int_valued = false;
                  run =
                    (fun ~lo ~len ->
                      let hits =
                        Column.like_dict col ~key:pattern (fun dict ->
                            Array.map matcher dict)
                      in
                      let out = grow_b buf len in
                      b3_of_hits out hits codes len lo;
                      B3 out);
                }
          | _ -> None))
  | _ -> (
      match compile schema tbl e with
      | Some k when k.kind = K_str ->
          let buf = ref Bytes.empty in
          let hits_of = dict_memo (fun dict -> Array.map matcher dict) in
          Some
            {
              kind = K_bool;
              int_valued = false;
              run =
                (fun ~lo ~len ->
                  let dict, codes = as_sv (k.run ~lo ~len) in
                  let hits = hits_of dict in
                  let out = grow_b buf len in
                  b3_of_hits out hits codes len 0;
                  B3 out);
            }
      | _ -> None)

and compile_func schema tbl name args =
  let lname = String.lowercase_ascii name in
  let unary_num f ~int_valued:iv =
    match args with
    | [ a ] -> (
        match compile schema tbl a with
        | Some k when k.kind = K_num ->
            let buf = ref [||] in
            Some
              {
                kind = K_num;
                int_valued = iv k.int_valued;
                run =
                  (fun ~lo ~len ->
                    let v, n = as_num (k.run ~lo ~len) in
                    let out = grow_f buf len in
                    for i = 0 to len - 1 do
                      out.(i) <- f v.(i)
                    done;
                    Num (out, n));
              }
        | _ -> None)
    | _ -> None
  in
  match lname with
  | "abs" -> (
      (* Open-coded: Float.abs through a closure boxes per row. *)
      match args with
      | [ a ] -> (
          match compile schema tbl a with
          | Some k when k.kind = K_num ->
              let buf = ref [||] in
              Some
                {
                  kind = K_num;
                  int_valued = k.int_valued;
                  run =
                    (fun ~lo ~len ->
                      let v, n = as_num (k.run ~lo ~len) in
                      let out = grow_f buf len in
                      for i = 0 to len - 1 do
                        out.(i) <- Float.abs v.(i)
                      done;
                      Num (out, n));
                }
          | _ -> None)
      | _ -> None)
  (* round/floor/ceil return Value.Int in the row engine regardless of
     the argument type. *)
  | "round" -> unary_num Float.round ~int_valued:(fun _ -> true)
  | "floor" -> unary_num Float.floor ~int_valued:(fun _ -> true)
  | "ceil" -> unary_num Float.ceil ~int_valued:(fun _ -> true)
  | "sqrt" -> (
      match args with
      | [ a ] -> (
          match compile schema tbl a with
          | Some k when k.kind = K_num ->
              let buf = ref [||] and nbuf = ref Bytes.empty in
              Some
                {
                  kind = K_num;
                  int_valued = false;
                  run =
                    (fun ~lo ~len ->
                      let v, n = as_num (k.run ~lo ~len) in
                      let out = grow_f buf len in
                      (* sqrt of a negative is NULL, like the row engine. *)
                      let nulls = grow_b nbuf len in
                      Bytes.fill nulls 0 len '\000';
                      for i = 0 to len - 1 do
                        if null_at n i || v.(i) < 0.0 then
                          Bytes.set nulls i '\001'
                        else out.(i) <- sqrt v.(i)
                      done;
                      Num (out, Some nulls));
                }
          | _ -> None)
      | _ -> None)
  | "length" -> (
      match args with
      | [ a ] -> (
          match compile schema tbl a with
          | Some k when k.kind = K_str ->
              let buf = ref [||] and nbuf = ref Bytes.empty in
              Some
                {
                  kind = K_num;
                  int_valued = true;
                  run =
                    (fun ~lo ~len ->
                      let dict, codes = as_sv (k.run ~lo ~len) in
                      let out = grow_f buf len in
                      let nulls = grow_b nbuf len in
                      Bytes.fill nulls 0 len '\000';
                      for i = 0 to len - 1 do
                        if codes.(i) < 0 then Bytes.set nulls i '\001'
                        else
                          out.(i) <-
                            float_of_int (String.length dict.(codes.(i)))
                      done;
                      Num (out, Some nulls));
                }
          | _ -> None)
      | _ -> None)
  | "lower" | "upper" -> (
      let f =
        if lname = "lower" then String.lowercase_ascii
        else String.uppercase_ascii
      in
      match args with
      | [ a ] -> (
          match compile schema tbl a with
          | Some k when k.kind = K_str ->
              (* The mapped dictionary is per-node-constant for column
                 inputs; memoized by physical equality of the dict. *)
              let mapped = dict_memo (fun dict -> Array.map f dict) in
              Some
                {
                  kind = K_str;
                  int_valued = false;
                  run =
                    (fun ~lo ~len ->
                      let dict, codes = as_sv (k.run ~lo ~len) in
                      Sv (mapped dict, codes));
                }
          | _ -> None)
      | _ -> None)
  | _ -> None
