module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation

let manifest_file = "manifest.txt"

let ty_tag = function
  | Value.T_int -> "INT"
  | Value.T_float -> "FLOAT"
  | Value.T_bool -> "BOOL"
  | Value.T_str -> "TEXT"

let ty_of_tag = function
  | "INT" -> Value.T_int
  | "FLOAT" -> Value.T_float
  | "BOOL" -> Value.T_bool
  | "TEXT" -> Value.T_str
  | tag -> failwith ("Persist: unknown type tag " ^ tag)

(* Floats are written in the shortest form that reads back to the same
   bits; the display form ([Value.to_string]) rounds to 6 digits. *)
let serialize_value v =
  match v with
  | Value.Null -> ""
  | Value.Float f -> Value.float_repr f
  | v -> Value.to_string v

let parse_value ty field =
  if field = "" then Value.Null
  else
    match ty with
    | Value.T_int -> (
        match int_of_string_opt field with
        | Some i -> Value.Int i
        | None -> failwith ("Persist: bad INT field " ^ field))
    | Value.T_float -> (
        match float_of_string_opt field with
        | Some f -> Value.Float f
        | None -> failwith ("Persist: bad FLOAT field " ^ field))
    | Value.T_bool -> (
        match String.lowercase_ascii field with
        | "true" -> Value.Bool true
        | "false" -> Value.Bool false
        | _ -> failwith ("Persist: bad BOOL field " ^ field))
    | Value.T_str -> Value.Str field

(* The manifest uses tab as the field separator and comma as the list
   separator, so a table or column name containing either (or a line
   break) would be torn apart on reload — reject such names up front,
   before anything is written. Values are not affected: they live in the
   CSV files, whose quoting handles commas and newlines. *)
let check_name ~what name =
  if name = "" then failwith (Printf.sprintf "Persist: empty %s name" what);
  String.iter
    (fun c ->
      match c with
      | '\t' | ',' | '\n' | '\r' ->
          failwith
            (Printf.sprintf
               "Persist: %s name %S contains a manifest delimiter (tab, \
                comma, or line break) and cannot be saved"
               what name)
      | _ -> ())
    name

(* Write via a sibling temp file and rename into place: rename within a
   directory is atomic, so a crash mid-save leaves either the old file
   or the new one, never a torn half. *)
let write_file_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match output_string oc content with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e);
  Sys.rename tmp path

(* Streaming variant: the writer emits straight to the temp channel, so a
   table is never held as one big string (the old path peaked at roughly
   the relation's size again in serialized text). *)
let write_stream_atomic path writer =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match writer oc with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e);
  Sys.rename tmp path

let output_row oc row =
  output_string oc
    (Pb_util.Csv.row_to_string (Array.to_list (Array.map serialize_value row)));
  output_char oc '\n'

(* One CSV line per original row. When a columnar image of this exact
   snapshot is already resident and compressed, serialize each distinct
   row once and replay the cached line along the order walk — duplicates
   cost a string write, not a re-serialization. *)
let stream_table db table rel oc =
  match Database.columnar_cached db table rel with
  | Some tbl when Pb_store.Table.compressed tbl ->
      let module T = Pb_store.Table in
      let lines = Array.make (T.distinct tbl) None in
      let line id =
        match lines.(id) with
        | Some s -> s
        | None ->
            let s =
              Pb_util.Csv.row_to_string
                (Array.to_list (Array.map serialize_value (T.get_row tbl id)))
              ^ "\n"
            in
            lines.(id) <- Some s;
            s
      in
      Array.iter
        (fun id -> output_string oc (line id))
        (Option.get (T.order tbl))
  | _ -> List.iter (fun row -> output_row oc row) (Relation.to_list rel)

let save_dir db dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tables = Database.table_names db in
  List.iter
    (fun table ->
      check_name ~what:"table" table;
      let rel = Database.find_exn db table in
      List.iter
        (fun { Schema.name; _ } -> check_name ~what:"column" name)
        (Schema.columns (Relation.schema rel)))
    tables;
  let manifest = Buffer.create 256 in
  List.iter
    (fun table ->
      let rel = Database.find_exn db table in
      let schema = Relation.schema rel in
      let cols =
        String.concat ","
          (List.map
             (fun { Schema.name; ty } -> name ^ ":" ^ ty_tag ty)
             (Schema.columns schema))
      in
      let indexes = String.concat "," (Database.indexed_columns db table) in
      Buffer.add_string manifest
        (Printf.sprintf "%s\t%s\t%s\n" table cols indexes);
      write_stream_atomic
        (Filename.concat dir (table ^ ".csv"))
        (stream_table db table rel))
    tables;
  (* The manifest rename is the commit point: every CSV it names is
     already durably in place when it appears. *)
  write_file_atomic (Filename.concat dir manifest_file)
    (Buffer.contents manifest);
  (* Drop CSVs of tables that no longer exist (otherwise a dropped table
     silently resurrects on the next load) and any temp files a crashed
     earlier save left behind. Table names are stored lowercase, so the
     on-disk name of a live table matches its catalog name exactly. *)
  let live = List.map (fun t -> t ^ ".csv") tables in
  Array.iter
    (fun entry ->
      let stale_csv =
        Filename.check_suffix entry ".csv" && not (List.mem entry live)
      in
      let stale_tmp = Filename.check_suffix entry ".tmp" in
      if stale_csv || stale_tmp then
        try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
    (Sys.readdir dir)

let load_dir dir =
  let path = Filename.concat dir manifest_file in
  if not (Sys.file_exists path) then
    failwith ("Persist: no manifest at " ^ path);
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let db = Database.create () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ table; cols; indexes ] ->
          let columns =
            List.map
              (fun spec ->
                match String.rindex_opt spec ':' with
                | Some i ->
                    {
                      Schema.name = String.sub spec 0 i;
                      ty =
                        ty_of_tag
                          (String.sub spec (i + 1) (String.length spec - i - 1));
                    }
                | None -> failwith ("Persist: bad column spec " ^ spec))
              (String.split_on_char ',' cols)
          in
          let schema = Schema.make columns in
          let tys = List.map (fun c -> c.Schema.ty) (Schema.columns schema) in
          let csv_path = Filename.concat dir (table ^ ".csv") in
          let raw_rows =
            if Sys.file_exists csv_path then Pb_util.Csv.parse_file csv_path
            else []
          in
          let rows =
            List.map
              (fun fields ->
                if List.length fields <> List.length tys then
                  failwith
                    (Printf.sprintf "Persist: row arity mismatch in %s" table)
                else Array.of_list (List.map2 parse_value tys fields))
              raw_rows
          in
          Database.put db table (Relation.create schema rows);
          if indexes <> "" then
            List.iter
              (fun column -> Database.create_index db ~table ~column)
              (String.split_on_char ',' indexes)
      | _ -> failwith ("Persist: malformed manifest line: " ^ line))
    lines;
  db
