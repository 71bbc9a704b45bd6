//! Unary and binary SQL operators.
//!
//! The paper's generator supports 47 operators (Table 6). The enum here
//! enumerates each operator with its SQL spelling; semantically equivalent
//! spellings such as `!=` and `<>` are distinct variants because they are
//! distinct *features* for the adaptive generator and the bug prioritizer
//! (the paper explicitly discusses `<>` vs `!=` duplicates in Section 5.5).

use std::fmt;

/// A unary SQL operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnaryOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Unary plus `+x`.
    Plus,
    /// Logical negation `NOT x`.
    Not,
    /// Bitwise inversion `~x` (the paper found a TiDB bug in this operator).
    BitNot,
}

impl UnaryOp {
    /// All unary operators.
    pub const ALL: [UnaryOp; 4] = [UnaryOp::Neg, UnaryOp::Plus, UnaryOp::Not, UnaryOp::BitNot];

    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Plus => "+",
            UnaryOp::Not => "NOT ",
            UnaryOp::BitNot => "~",
        }
    }

    /// Canonical feature name used by the feature model.
    pub const fn feature_name(self) -> &'static str {
        match self {
            UnaryOp::Neg => "OP_UNARY_MINUS",
            UnaryOp::Plus => "OP_UNARY_PLUS",
            UnaryOp::Not => "OP_NOT",
            UnaryOp::BitNot => "OP_BITNOT",
        }
    }
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// A binary SQL operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<>` (same semantics as `!=`, distinct feature)
    NeqLtGt,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<=>` MySQL-style null-safe equality
    NullSafeEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `#` (PostgreSQL XOR) — rendered as `#`
    BitXor,
    /// `<<`
    ShiftLeft,
    /// `>>`
    ShiftRight,
    /// `||` string concatenation
    Concat,
    /// `IS DISTINCT FROM`
    IsDistinctFrom,
    /// `IS NOT DISTINCT FROM`
    IsNotDistinctFrom,
}

impl BinaryOp {
    /// All binary operators in a canonical order.
    pub const ALL: [BinaryOp; 23] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Mod,
        BinaryOp::Eq,
        BinaryOp::Neq,
        BinaryOp::NeqLtGt,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::NullSafeEq,
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::BitAnd,
        BinaryOp::BitOr,
        BinaryOp::BitXor,
        BinaryOp::ShiftLeft,
        BinaryOp::ShiftRight,
        BinaryOp::Concat,
        BinaryOp::IsDistinctFrom,
        BinaryOp::IsNotDistinctFrom,
    ];

    /// The comparison operators (produce a boolean / truth value).
    pub const COMPARISONS: [BinaryOp; 10] = [
        BinaryOp::Eq,
        BinaryOp::Neq,
        BinaryOp::NeqLtGt,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::NullSafeEq,
        BinaryOp::IsDistinctFrom,
        BinaryOp::IsNotDistinctFrom,
    ];

    /// The arithmetic operators.
    pub const ARITHMETIC: [BinaryOp; 5] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Mod,
    ];

    /// The bitwise operators.
    pub const BITWISE: [BinaryOp; 5] = [
        BinaryOp::BitAnd,
        BinaryOp::BitOr,
        BinaryOp::BitXor,
        BinaryOp::ShiftLeft,
        BinaryOp::ShiftRight,
    ];

    /// The logical connectives.
    pub const LOGICAL: [BinaryOp; 2] = [BinaryOp::And, BinaryOp::Or];

    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "!=",
            BinaryOp::NeqLtGt => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::NullSafeEq => "<=>",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::BitAnd => "&",
            BinaryOp::BitOr => "|",
            BinaryOp::BitXor => "#",
            BinaryOp::ShiftLeft => "<<",
            BinaryOp::ShiftRight => ">>",
            BinaryOp::Concat => "||",
            BinaryOp::IsDistinctFrom => "IS DISTINCT FROM",
            BinaryOp::IsNotDistinctFrom => "IS NOT DISTINCT FROM",
        }
    }

    /// Canonical feature name used by the feature model.
    pub const fn feature_name(self) -> &'static str {
        match self {
            BinaryOp::Add => "OP_ADD",
            BinaryOp::Sub => "OP_SUB",
            BinaryOp::Mul => "OP_MUL",
            BinaryOp::Div => "OP_DIV",
            BinaryOp::Mod => "OP_MOD",
            BinaryOp::Eq => "OP_EQ",
            BinaryOp::Neq => "OP_NEQ",
            BinaryOp::NeqLtGt => "OP_NEQ_LTGT",
            BinaryOp::Lt => "OP_LT",
            BinaryOp::Le => "OP_LE",
            BinaryOp::Gt => "OP_GT",
            BinaryOp::Ge => "OP_GE",
            BinaryOp::NullSafeEq => "OP_NULLSAFE_EQ",
            BinaryOp::And => "OP_AND",
            BinaryOp::Or => "OP_OR",
            BinaryOp::BitAnd => "OP_BITAND",
            BinaryOp::BitOr => "OP_BITOR",
            BinaryOp::BitXor => "OP_BITXOR",
            BinaryOp::ShiftLeft => "OP_SHL",
            BinaryOp::ShiftRight => "OP_SHR",
            BinaryOp::Concat => "OP_CONCAT",
            BinaryOp::IsDistinctFrom => "OP_IS_DISTINCT",
            BinaryOp::IsNotDistinctFrom => "OP_IS_NOT_DISTINCT",
        }
    }

    /// Does this operator yield a boolean result?
    pub fn is_comparison(self) -> bool {
        Self::COMPARISONS.contains(&self)
    }

    /// Is this a logical connective (`AND`/`OR`)?
    pub fn is_logical(self) -> bool {
        Self::LOGICAL.contains(&self)
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_operators_have_unique_spellings_or_semantics() {
        // `!=` and `<>` intentionally share semantics; everything else must
        // have a unique SQL spelling.
        let spellings: HashSet<_> = BinaryOp::ALL.iter().map(|op| op.sql()).collect();
        assert_eq!(spellings.len(), BinaryOp::ALL.len());
    }

    #[test]
    fn feature_names_are_unique() {
        let names: HashSet<_> = BinaryOp::ALL
            .iter()
            .map(|op| op.feature_name())
            .chain(UnaryOp::ALL.iter().map(|op| op.feature_name()))
            .collect();
        assert_eq!(names.len(), BinaryOp::ALL.len() + UnaryOp::ALL.len());
    }

    #[test]
    fn comparison_classification() {
        assert!(BinaryOp::Eq.is_comparison());
        assert!(BinaryOp::NullSafeEq.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
        assert!(BinaryOp::And.is_logical());
        assert!(!BinaryOp::Eq.is_logical());
    }

    #[test]
    fn categories_are_disjoint_and_cover_subsets_of_all() {
        for op in BinaryOp::COMPARISONS
            .iter()
            .chain(BinaryOp::ARITHMETIC.iter())
            .chain(BinaryOp::BITWISE.iter())
            .chain(BinaryOp::LOGICAL.iter())
        {
            assert!(BinaryOp::ALL.contains(op));
        }
    }
}
