//! One module per paper table/figure, plus the two unit experiments.

pub mod ablation;
pub mod cluster;
pub mod coldstart;
pub mod faults;
pub mod recovery;
pub mod streams;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod tenants;
pub mod unit_a;
pub mod unit_b;
pub mod updates;
