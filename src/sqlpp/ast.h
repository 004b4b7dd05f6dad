// SQL++ abstract syntax. The parser (parser.h) produces these; the
// translator (translator.h) lowers them onto the Algebricks algebra that
// AQL shares (paper Fig. 4/Fig. 5 and §IV-A's "SQL++ as a peer of AQL").
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"

namespace asterix::sqlpp::ast {

struct ExprNode;
using ExprNodePtr = std::shared_ptr<ExprNode>;
struct SelectQuery;
using SelectQueryPtr = std::shared_ptr<SelectQuery>;

enum class ExprNodeKind : uint8_t {
  kLiteral,
  kIdent,        // variable or dataset reference, resolved by the translator
  kFieldAccess,  // base.field
  kIndexAccess,  // base[expr]
  kCall,         // fn(args...)
  kObject,       // { "a": e, ... }
  kArray,        // [ e, ... ]
  kMultiset,     // {{ e, ... }}
  kCase,         // CASE WHEN c THEN v ... [ELSE d] END
  kQuantified,   // SOME/EVERY x IN coll SATISFIES pred
  kExists,       // EXISTS coll-expr
  kSubquery,     // ( SELECT ... )
};

struct ExprNode {
  ExprNodeKind kind;
  adm::Value literal;                                  // kLiteral
  std::string ident;                                   // kIdent
  ExprNodePtr base;                                    // field/index access
  std::string field;
  ExprNodePtr index;
  std::string fn;                                      // kCall (normalized)
  std::vector<ExprNodePtr> args;                       // kCall / kCase pairs
  std::vector<std::pair<std::string, ExprNodePtr>> obj_fields;  // kObject
  std::vector<ExprNodePtr> items;                      // kArray / kMultiset
  bool some = true;                                    // kQuantified
  std::string bound_name;
  ExprNodePtr collection;
  ExprNodePtr predicate;
  SelectQueryPtr subquery;                             // kSubquery

  static ExprNodePtr Literal(adm::Value v) {
    auto e = std::make_shared<ExprNode>();
    e->kind = ExprNodeKind::kLiteral;
    e->literal = std::move(v);
    return e;
  }
  static ExprNodePtr Ident(std::string name) {
    auto e = std::make_shared<ExprNode>();
    e->kind = ExprNodeKind::kIdent;
    e->ident = std::move(name);
    return e;
  }
  static ExprNodePtr Field(ExprNodePtr base, std::string field) {
    auto e = std::make_shared<ExprNode>();
    e->kind = ExprNodeKind::kFieldAccess;
    e->base = std::move(base);
    e->field = std::move(field);
    return e;
  }
  static ExprNodePtr Call(std::string fn, std::vector<ExprNodePtr> args) {
    auto e = std::make_shared<ExprNode>();
    e->kind = ExprNodeKind::kCall;
    e->fn = std::move(fn);
    e->args = std::move(args);
    return e;
  }
};

enum class JoinStyle : uint8_t { kFirst, kComma, kInner, kLeftOuter };

struct FromClause {
  ExprNodePtr expr;
  std::string alias;
  JoinStyle style = JoinStyle::kFirst;
  ExprNodePtr on;  // JOIN ... ON condition
};

struct Projection {
  ExprNodePtr expr;
  std::string alias;
  bool star = false;  // SELECT *
};

struct SelectQuery {
  std::vector<std::pair<std::string, ExprNodePtr>> with;
  bool distinct = false;
  bool select_value = false;
  ExprNodePtr value_expr;              // SELECT VALUE expr
  std::vector<Projection> projections;  // SELECT a AS x, ...
  std::vector<FromClause> froms;
  std::vector<std::pair<std::string, ExprNodePtr>> lets;
  ExprNodePtr where;
  std::vector<std::pair<std::string, ExprNodePtr>> group_by;  // alias, expr
  std::string group_as;                // GROUP AS g
  ExprNodePtr having;
  std::vector<std::pair<ExprNodePtr, bool>> order_by;  // expr, ascending
  int64_t limit = -1;
  int64_t offset = 0;
};

/// Type specification in CREATE TYPE.
struct TypeSpec {
  enum Kind : uint8_t { kNamed, kArray, kMultiset } kind = kNamed;
  std::string name;                 // kNamed: primitive or declared type
  std::shared_ptr<TypeSpec> item;   // kArray/kMultiset
};

struct TypeField {
  std::string name;
  TypeSpec type;
  bool optional = false;
};

/// One parsed statement.
struct Statement {
  enum Kind : uint8_t {
    kQuery,
    kCreateType,
    kCreateDataset,
    kCreateExternalDataset,
    kCreateIndex,
    kDropDataset,
    kDropIndex,
    kDropType,
    kInsert,
    kUpsert,
    kDelete,
    kCreateFeed,      // CREATE FEED f USING adapter (("k"="v"),...)
    kDropFeed,        // DROP FEED f
    kConnectFeed,     // CONNECT FEED f TO DATASET ds [USING POLICY p]
    kDisconnectFeed,  // DISCONNECT FEED f
  } kind = kQuery;

  /// kQuery: the whole query. kDelete: `FROM target [alias] [WHERE cond]`
  /// only; the Instance adds the SELECT VALUE of the primary key.
  SelectQueryPtr query;

  // CREATE TYPE
  std::string type_name;
  bool closed = false;
  std::vector<TypeField> type_fields;

  // CREATE [EXTERNAL] DATASET
  std::string dataset_name;
  std::string dataset_type;
  std::string primary_key;
  std::map<std::string, std::string> external_props;  // path/format/delimiter
  /// Internal-dataset WITH record, e.g. {"storage-format": "columnar"}.
  std::map<std::string, std::string> with_props;

  // CREATE INDEX / DROP INDEX
  std::string index_name;
  std::string on_dataset;
  std::string on_field;
  std::string index_type;  // "BTREE" | "RTREE" | "KEYWORD"

  // CREATE FEED / CONNECT FEED (props reuse external_props; the CONNECT
  // target dataset reuses dataset_name)
  std::string feed_name;
  std::string feed_adapter;
  std::string feed_policy;  // empty = BASIC

  // INSERT / UPSERT / DELETE
  std::string target;
  ExprNodePtr payload;  // record (or array of records) to insert
};

}  // namespace asterix::sqlpp::ast
