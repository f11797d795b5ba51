(* Instruments must stay correct when bumped from several domains at
   once (the Pb_par pool runs strategy legs and operator chunks
   concurrently): counters and gauges are Atomics, histograms take a
   tiny per-instrument mutex, and registration/iteration goes through a
   per-registry mutex. *)

type counter = { c_name : string; c_help : string; count : int Atomic.t }
type gauge = { g_name : string; g_help : string; value : float Atomic.t }

type histogram = {
  h_name : string;
  h_help : string;
  h_mu : Mutex.t;
  bounds : float array;  (* sorted inclusive upper bounds, +Inf excluded *)
  buckets : int array;  (* length = Array.length bounds + 1 (the +Inf one) *)
  mutable sum : float;
  mutable observations : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type registry = {
  mu : Mutex.t;
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (* registration order, newest first *)
}

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64; order = [] }
let default = create ()

let locked registry f =
  Mutex.lock registry.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry.mu) f

let register registry name make =
  locked registry (fun () ->
      match Hashtbl.find_opt registry.tbl name with
      | Some existing -> existing
      | None ->
          let m = make () in
          Hashtbl.add registry.tbl name m;
          registry.order <- name :: registry.order;
          m)

let kind_clash name =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered as another kind" name)

let counter ?(registry = default) ?(help = "") name =
  match
    register registry name (fun () ->
        Counter { c_name = name; c_help = help; count = Atomic.make 0 })
  with
  | Counter c -> c
  | Gauge _ | Histogram _ -> kind_clash name

let gauge ?(registry = default) ?(help = "") name =
  match
    register registry name (fun () ->
        Gauge { g_name = name; g_help = help; value = Atomic.make 0.0 })
  with
  | Gauge g -> g
  | Counter _ | Histogram _ -> kind_clash name

let histogram ?(registry = default) ?(help = "") ~buckets name =
  if buckets = [] then invalid_arg "Metrics.histogram: empty bucket list";
  match
    register registry name (fun () ->
        let bounds = Array.of_list (List.sort_uniq compare buckets) in
        Histogram
          {
            h_name = name;
            h_help = help;
            h_mu = Mutex.create ();
            bounds;
            buckets = Array.make (Array.length bounds + 1) 0;
            sum = 0.0;
            observations = 0;
          })
  with
  | Histogram h -> h
  | Counter _ | Gauge _ -> kind_clash name

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: negative increment";
  ignore (Atomic.fetch_and_add c.count by)

let set g v = Atomic.set g.value v

let observe h v =
  Mutex.lock h.h_mu;
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || v <= h.bounds.(i) then i else slot (i + 1) in
  h.buckets.(slot 0) <- h.buckets.(slot 0) + 1;
  h.sum <- h.sum +. v;
  h.observations <- h.observations + 1;
  Mutex.unlock h.h_mu

let histogram_count h =
  Mutex.lock h.h_mu;
  let n = h.observations in
  Mutex.unlock h.h_mu;
  n

let histogram_sum h =
  Mutex.lock h.h_mu;
  let s = h.sum in
  Mutex.unlock h.h_mu;
  s

let in_order registry =
  locked registry (fun () ->
      List.filter_map
        (fun name -> Hashtbl.find_opt registry.tbl name)
        (List.rev registry.order))

let snapshot ?(registry = default) () =
  List.concat_map
    (function
      | Counter c -> [ (c.c_name, float_of_int (Atomic.get c.count)) ]
      | Gauge g -> [ (g.g_name, Atomic.get g.value) ]
      | Histogram h ->
          [
            (h.h_name ^ "_count", float_of_int (histogram_count h));
            (h.h_name ^ "_sum", histogram_sum h);
          ])
    (in_order registry)

(* Prometheus-compatible float rendering: integral values print without
   an exponent or trailing zeros, the rest use shortest-roundtrip %g. *)
let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* Exposition-format escaping. HELP text escapes backslash and newline;
   label values additionally escape the double quote.  (A raw newline in
   either would desynchronise every line-oriented consumer of the
   exposition, which is why the format mandates these.) *)
let escape ~quote s =
  let needs c = c = '\\' || c = '\n' || (quote && c = '"') in
  if not (String.exists needs s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '"' when quote -> Buffer.add_string buf "\\\""
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let escape_help = escape ~quote:false
let escape_label = escape ~quote:true

let dump ?(registry = default) () =
  let buf = Buffer.create 1024 in
  let header name help kind =
    if help <> "" then
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (function
      | Counter c ->
          header c.c_name c.c_help "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n" c.c_name (Atomic.get c.count))
      | Gauge g ->
          header g.g_name g.g_help "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" g.g_name (fnum (Atomic.get g.value)))
      | Histogram h ->
          header h.h_name h.h_help "histogram";
          Mutex.lock h.h_mu;
          let cumulative = ref 0 in
          Array.iteri
            (fun i count ->
              cumulative := !cumulative + count;
              let le =
                if i < Array.length h.bounds then fnum h.bounds.(i) else "+Inf"
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" h.h_name
                   (escape_label le) !cumulative))
            h.buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" h.h_name (fnum h.sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" h.h_name h.observations);
          Mutex.unlock h.h_mu)
    (in_order registry);
  Buffer.contents buf
