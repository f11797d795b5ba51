(** Tokenizer shared by the SQL and PaQL parsers.

    Keywords are recognized case-insensitively and include both standard
    SQL and the PaQL extensions (PACKAGE, SUCH, THAT, REPEAT, MAXIMIZE,
    MINIMIZE). Identifiers may be qualified later by the parser via the
    [Dot] token. *)

type token =
  | Ident of string          (** lower-cased identifier *)
  | Keyword of string        (** upper-cased reserved word *)
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string        (** contents of a '...'-quoted literal *)
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Star
  | Plus
  | Minus
  | Slash
  | Eq_tok
  | Neq_tok
  | Lt_tok
  | Le_tok
  | Gt_tok
  | Ge_tok
  | Semicolon
  | Eof

exception Lex_error of string * int
(** Message and byte offset. *)

val tokenize : string -> token list
(** Full tokenization; the list always ends with [Eof].
    ['--'] starts a comment to end of line. Raises {!Lex_error}. *)

val token_to_string : token -> string
