type entry = { query : string; elapsed : float }

let capacity = 100
let threshold_ref : float option ref = ref None
let log : entry list ref = ref []  (* most recent first *)
let count = ref 0

let set_threshold t = threshold_ref := t
let threshold () = !threshold_ref

let truncate k xs =
  List.filteri (fun i _ -> i < k) xs

let observe ~query ~elapsed =
  match !threshold_ref with
  | Some t when elapsed >= t ->
      log := { query; elapsed } :: !log;
      incr count;
      if !count > capacity then begin
        log := truncate capacity !log;
        count := capacity
      end;
      true
  | Some _ | None -> false

let clear () =
  log := [];
  count := 0

let render () =
  match !log with
  | [] -> "(slow-query log is empty)"
  | entries ->
      String.concat "\n"
        (List.map
           (fun e ->
             let ms = e.elapsed *. 1e3 in
             Printf.sprintf "%8.1fms  %s" ms e.query)
           entries)
