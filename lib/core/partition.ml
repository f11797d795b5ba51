type t = {
  groups : int array array;
  centroids : float array array;
  owner : int array;
}

let group_count t = Array.length t.groups

let group_of t i =
  if i < 0 || i >= Array.length t.owner then
    invalid_arg "Partition.group_of: index out of range";
  t.owner.(i)

(* A group under construction is the segment [perm.(lo) .. perm.(lo +
   len - 1)] of the shared permutation, in no particular order; [least]
   is its smallest member. *)
type seg = { lo : int; len : int; least : int }

(* Candidate key order: feature value under [Float.compare] (NaN equal
   to itself and below everything, [0.] equal to [-0.]), then candidate
   index. This is exactly polymorphic [compare] on [(f.(i), i)], and
   keys are unique, so every median split is uniquely determined. *)
let key_cmp f i j =
  let c = Float.compare f.(i) f.(j) in
  if c <> 0 then c else Int.compare i j

let seg_min perm lo len =
  let m = ref perm.(lo) in
  for x = lo + 1 to lo + len - 1 do
    if perm.(x) < !m then m := perm.(x)
  done;
  !m

(* Dimension with the widest [max - min] over the group; ties go to the
   lowest dimension, and a group constant in every feature returns None
   (unsplittable). The range is seeded from the smallest member, so a
   NaN there makes the spread NaN and the dimension is skipped; NaNs
   elsewhere never move the range. *)
let widest_dim features perm g =
  let best = ref (-1) and best_spread = ref 0.0 in
  Array.iteri
    (fun dim f ->
      let lo = ref f.(g.least) and hi = ref f.(g.least) in
      for x = g.lo to g.lo + g.len - 1 do
        let v = f.(perm.(x)) in
        if v < !lo then lo := v;
        if v > !hi then hi := v
      done;
      let s = !hi -. !lo in
      if s > !best_spread then begin
        best := dim;
        best_spread := s
      end)
    features;
  if !best < 0 then None else Some !best

(* Rearrange [perm.(lo .. hi)] (inclusive) so that position [k] holds
   the element of rank [k - lo] under [key_cmp f], with smaller keys
   before it and larger ones after: Hoare's FIND with a median-of-three
   pivot. Ranges that stop shrinking fast enough are sorted outright,
   bounding the worst case at O(m log m). *)
let select f perm lo hi k =
  let less i j = key_cmp f i j < 0 in
  let swap a b =
    let t = perm.(a) in
    perm.(a) <- perm.(b);
    perm.(b) <- t
  in
  let l = ref lo and r = ref hi in
  let budget = ref (2 * (1 + Float.to_int (Float.log2 (float_of_int (hi - lo + 1))))) in
  while !l < !r do
    if !budget = 0 then begin
      let sub = Array.sub perm !l (!r - !l + 1) in
      Array.sort (key_cmp f) sub;
      Array.blit sub 0 perm !l (Array.length sub);
      l := !r
    end
    else begin
      decr budget;
      let mid = !l + ((!r - !l) / 2) in
      if less perm.(mid) perm.(!l) then swap mid !l;
      if less perm.(!r) perm.(!l) then swap !r !l;
      if less perm.(!r) perm.(mid) then swap !r mid;
      let pivot = perm.(mid) in
      let i = ref !l and j = ref !r in
      while !i <= !j do
        while less perm.(!i) pivot do incr i done;
        while less pivot perm.(!j) do decr j done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      if k <= !j then r := !j
      else if k >= !i then l := !i
      else l := !r
    end
  done

(* Splittable groups, largest first, ties to the smallest member:
   the order in which the median-split loop picks them. *)
module Heap = struct
  type h = { a : seg array; mutable size : int }

  let above x y = x.len > y.len || (x.len = y.len && x.least < y.least)

  (* A heap holding just [g], with room for [capacity] groups. *)
  let singleton ~capacity g = { a = Array.make capacity g; size = 1 }

  let push h g =
    let c = ref h.size in
    h.size <- h.size + 1;
    while !c > 0 && above g h.a.((!c - 1) / 2) do
      h.a.(!c) <- h.a.((!c - 1) / 2);
      c := (!c - 1) / 2
    done;
    h.a.(!c) <- g

  let pop h =
    let top = h.a.(0) in
    h.size <- h.size - 1;
    let last = h.a.(h.size) in
    let c = ref 0 and continue = ref (h.size > 0) in
    while !continue do
      let l = (2 * !c) + 1 in
      if l >= h.size then continue := false
      else begin
        let b = if l + 1 < h.size && above h.a.(l + 1) h.a.(l) then l + 1 else l in
        if above h.a.(b) last then begin
          h.a.(!c) <- h.a.(b);
          c := b
        end
        else continue := false
      end
    done;
    if h.size > 0 then h.a.(!c) <- last;
    top
end

(* Median-split the whole (nonempty) permutation into at most [target]
   segments. *)
let split features perm ~target =
  let n = Array.length perm in
  let target = max 1 (min target n) in
  (* Each split pops one group and pushes two, so the heap never holds
     more than [count <= target] groups. *)
  let heap = Heap.singleton ~capacity:target { lo = 0; len = n; least = seg_min perm 0 n } in
  let out = ref [] and count = ref 1 in
  while !count < target && heap.Heap.size > 0 do
    let g = Heap.pop heap in
    match widest_dim features perm g with
    | None -> out := g :: !out
    | Some dim ->
        let half = g.len / 2 in
        select features.(dim) perm g.lo (g.lo + g.len - 1) (g.lo + half);
        let rlo = g.lo + half and rlen = g.len - half in
        Heap.push heap { lo = g.lo; len = half; least = seg_min perm g.lo half };
        Heap.push heap { lo = rlo; len = rlen; least = seg_min perm rlo rlen };
        incr count
  done;
  for x = 0 to heap.Heap.size - 1 do
    out := heap.Heap.a.(x) :: !out
  done;
  !out

let build ~target ~features ~n =
  let perm = Array.init n Fun.id in
  let pieces = if n = 0 then [||] else Array.of_list (split features perm ~target) in
  let owner = Array.make n 0 in
  (* Label every candidate with its piece, then emit: scanning candidates
     in ascending order numbers the groups by smallest member and fills
     each one already ascending, and [owner] becomes the inverse map. *)
  Array.iteri
    (fun p g ->
      for x = g.lo to g.lo + g.len - 1 do
        owner.(perm.(x)) <- p
      done)
    pieces;
  let k = Array.length pieces in
  let rank = Array.make k (-1) and next = ref 0 in
  let groups = Array.make k [||] and fill = Array.make k 0 in
  for i = 0 to n - 1 do
    let p = owner.(i) in
    if rank.(p) < 0 then begin
      rank.(p) <- !next;
      groups.(!next) <- Array.make pieces.(p).len 0;
      incr next
    end;
    let r = rank.(p) in
    groups.(r).(fill.(r)) <- i;
    fill.(r) <- fill.(r) + 1;
    owner.(i) <- r
  done;
  let centroids =
    Array.map
      (fun g ->
        Array.map
          (fun f ->
            Array.fold_left (fun acc i -> acc +. f.(i)) 0.0 g
            /. float_of_int (Array.length g))
          features)
      groups
  in
  { groups; centroids; owner }
